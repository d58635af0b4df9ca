"""Equilibria, Jacobians, the 3x3 eigen solver, and linearized solutions.

numpy.linalg.eig serves as the independent oracle for the hand-rolled
cubic/null-space eigen solver; the two must agree on random
well-conditioned matrices while the solver also satisfies the residual,
trace, and determinant identities on its own.
"""

import cmath
from dataclasses import asdict

import numpy as np
import pytest

from viradyn import (
    EfficacySchedule,
    EigenDecomposition,
    EquilibriumKind,
    ModelKind,
    ModelParams,
    StabilityClass,
    SystemState,
    classify,
    eigen3,
    equilibria,
    evaluate_linearized,
    fit_linearized,
    jacobian,
    rhs,
)
from viradyn.analysis import _solve_conditioned
from viradyn.errors import ConditioningError, DefectiveMatrixError

REPORTED_EQUILIBRIUM = np.array([240.0, 21.6667, 902.778])
PRINTED_JACOBIAN = np.array([
    [-0.0417, 0.0, -0.0058],
    [0.0217, -0.24, 0.0058],
    [0.0, 100.0, -2.4],
])
PRINTED_EIGENVALUES = [-2.64334, -0.0191783 + 0.0658064j, -0.0191783 - 0.0658064j]


def _sorted_by_value(values):
    return sorted(values, key=lambda z: (z.real, z.imag))


# --- equilibria -------------------------------------------------------------

def test_infected_equilibrium_matches_reported_point():
    eqs = equilibria(ModelParams(), 0.0, 0.0, ModelKind.BASIC)
    infected = next(e for e in eqs if e.kind is EquilibriumKind.INFECTED)
    assert np.all(np.abs(infected.point.as_array() - REPORTED_EQUILIBRIUM) < 1e-3)


def test_uninfected_equilibrium_is_s_over_d():
    eqs = equilibria(ModelParams(s=10.0, d=0.02), 0.0, 0.0, ModelKind.BASIC)
    healthy = next(e for e in eqs if e.kind is EquilibriumKind.UNINFECTED)
    assert healthy.point.as_array() == pytest.approx([500.0, 0.0, 0.0], rel=1e-12)


def test_full_combined_efficacy_leaves_only_uninfected():
    eqs = equilibria(ModelParams(), 0.0, 1.0, ModelKind.COMBINED)
    assert [e.kind for e in eqs] == [EquilibriumKind.UNINFECTED]


def test_subthreshold_infection_omits_infected_point():
    # u2=0.6 pushes the treated V component negative: the infection dies out
    eqs = equilibria(ModelParams(), 0.0, 0.6, ModelKind.COMBINED)
    assert [e.kind for e in eqs] == [EquilibriumKind.UNINFECTED]


def test_an_underflowing_m1_m2_makes_the_infected_point_overflow():
    # m1*m2 rounds to 0: the infected V is infinite, not a division by zero
    with pytest.raises(ValueError, match="^the parameters overflow the infected equilibrium: "
                                         "state component V must be finite$"):
        equilibria(ModelParams(m1=5e-324), 0.0, 0.0, ModelKind.BASIC)


@pytest.mark.parametrize("kind,u1,u2", [
    (ModelKind.BASIC, 0.0, 0.0),
    (ModelKind.TWO_CONTROL, 0.2, 0.1),
    (ModelKind.COMBINED, 0.0, 0.4),
])
def test_every_returned_equilibrium_zeroes_the_rhs(kind, u1, u2):
    p = ModelParams()
    schedule = (EfficacySchedule.window(0.0, 1e6, u1, u2)
                if (u1, u2) != (0.0, 0.0) else EfficacySchedule())
    for eq in equilibria(p, u1, u2, kind):
        residual = np.linalg.norm(rhs(kind, p, schedule, 0.5, eq.point))
        assert residual < 1e-9 * (1.0 + np.linalg.norm(eq.point.as_array()))


# --- jacobian ---------------------------------------------------------------

def test_jacobian_matches_printed_matrix_at_equilibrium():
    p = ModelParams()
    infected = next(e for e in equilibria(p, 0.0, 0.0, ModelKind.BASIC)
                    if e.kind is EquilibriumKind.INFECTED)
    J = jacobian(p, 0.0, 0.0, ModelKind.BASIC, infected.point)
    assert np.max(np.abs(J - PRINTED_JACOBIAN)) < 5e-5


def test_jacobian_decouples_in_the_vanishing_infection_limit():
    # beta must stay positive, so probe the limit with a negligible value
    p = ModelParams(beta=1e-12)
    J = jacobian(p, 0.0, 0.0, ModelKind.BASIC, SystemState(300.0, 5.0, 40.0))
    decoupled = np.array([[-p.d, 0.0, 0.0], [0.0, -p.m2, 0.0], [0.0, p.k, -p.m1]])
    assert np.max(np.abs(J - decoupled)) < 1e-8


def test_jacobian_at_uninfected_point_has_symmetric_infection_entries():
    p = ModelParams()
    J = jacobian(p, 0.0, 0.0, ModelKind.BASIC, SystemState(p.s / p.d, 0.0, 0.0))
    assert J[0, 2] == pytest.approx(-p.beta * p.s / p.d, rel=1e-12)
    assert J[1, 2] == pytest.approx(p.beta * p.s / p.d, rel=1e-12)


@pytest.mark.parametrize("kind,u1,u2", [
    (ModelKind.BASIC, 0.0, 0.0),
    (ModelKind.TWO_CONTROL, 0.3, 0.5),
    (ModelKind.COMBINED, 0.0, 0.7),
])
@pytest.mark.parametrize("point", [
    SystemState(240.0, 21.6667, 902.778),
    SystemState(1200.0, 0.0, 100.0),
    SystemState(37.0, 4.2, 11.0),
])
def test_jacobian_matches_central_finite_differences(kind, u1, u2, point):
    p = ModelParams()
    schedule = EfficacySchedule.window(-1.0, 1.0, u1, u2)
    J = jacobian(p, u1, u2, kind, point)
    w = point.as_array()
    fd = np.empty((3, 3))
    for j in range(3):
        step = 1e-6 * (1.0 + abs(w[j]))
        plus, minus = w.copy(), w.copy()
        plus[j] += step
        minus[j] -= step
        fd[:, j] = (rhs(kind, p, schedule, 0.0, SystemState.from_array(plus))
                    - rhs(kind, p, schedule, 0.0, SystemState.from_array(minus))) / (2 * step)
    assert np.all(np.abs(fd - J) <= 1e-4 * (1.0 + np.abs(J)))


# --- eigen3 -----------------------------------------------------------------

def test_identity_matrix_decomposition():
    dec = eigen3(np.eye(3))
    assert np.allclose(dec.eigenvalues, [1.0, 1.0, 1.0])
    assert np.allclose(dec.eigenvectors, np.eye(3))


def test_diagonal_matrix_sorted_descending():
    dec = eigen3(np.diag([2.0, -1.0, 5.0]))
    assert np.allclose(dec.eigenvalues, [5.0, 2.0, -1.0])


def test_printed_jacobian_reproduces_printed_eigenvalues():
    dec = eigen3(PRINTED_JACOBIAN)
    mine = _sorted_by_value(dec.eigenvalues)
    ref = _sorted_by_value(PRINTED_EIGENVALUES)
    assert max(abs(a - b) for a, b in zip(mine, ref)) < 1e-4


def test_printed_jacobian_reproduces_printed_eigenvectors():
    dec = eigen3(PRINTED_JACOBIAN)
    by_value = {}
    for i, lam in enumerate(dec.eigenvalues):
        by_value[complex(np.round(lam, 3))] = dec.eigenvectors[:, i]
    v1 = by_value[complex(-2.643, 0.0)]
    assert np.max(np.abs(v1 - np.array([0.0022, -0.0024, 1.0]))) < 5e-5
    v2 = by_value[complex(-0.019, 0.066)]
    assert np.max(np.abs(v2 - np.array([-0.0270 + 0.0788j, 0.0238 + 0.0006j, 1.0]))) < 2e-4


def test_agrees_with_numpy_on_the_exact_jacobian():
    p = ModelParams()
    infected = next(e for e in equilibria(p, 0.0, 0.0, ModelKind.BASIC)
                    if e.kind is EquilibriumKind.INFECTED)
    J = jacobian(p, 0.0, 0.0, ModelKind.BASIC, infected.point)
    mine = _sorted_by_value(eigen3(J).eigenvalues)
    oracle = _sorted_by_value(np.linalg.eigvals(J))
    scale = np.max(np.abs(J))
    assert max(abs(a - b) for a, b in zip(mine, oracle)) < 1e-10 * scale


def test_random_matrices_residual_trace_det_and_oracle_agreement():
    rng = np.random.default_rng(42)
    checked = 0
    while checked < 200:
        A = rng.normal(size=(3, 3)) * rng.choice([0.1, 1.0, 10.0])
        oracle = np.linalg.eigvals(A)
        gaps = [abs(a - b) for i, a in enumerate(oracle) for b in oracle[i + 1:]]
        if min(gaps) < 1e-3 * np.max(np.abs(A)):
            continue  # the residual gate targets well-conditioned eigenproblems
        checked += 1
        dec = eigen3(A)
        norm_a = np.linalg.norm(A)
        for i in range(3):
            v = dec.eigenvectors[:, i]
            residual = np.linalg.norm(A @ v - dec.eigenvalues[i] * v)
            assert residual < 1e-8 * norm_a * np.linalg.norm(v)
        assert abs(np.sum(dec.eigenvalues) - np.trace(A)) < 1e-8 * norm_a
        assert abs(np.prod(dec.eigenvalues) - np.linalg.det(A)) < 1e-8 * norm_a ** 3
        mine = _sorted_by_value(dec.eigenvalues)
        ref = _sorted_by_value(oracle)
        assert max(abs(a - b) for a, b in zip(mine, ref)) < 1e-9 * max(1.0, norm_a)


def test_complex_pairs_are_adjacent_conjugates_with_conjugate_vectors():
    rng = np.random.default_rng(3)
    seen_complex = 0
    for _ in range(100):
        A = rng.normal(size=(3, 3))
        dec = eigen3(A)
        order = dec.eigenvalues.real
        assert np.all(np.diff(order) <= 1e-12)  # descending real parts
        for i, lam in enumerate(dec.eigenvalues):
            if lam.imag > 0.0:
                seen_complex += 1
                partner = dec.eigenvalues[i + 1]
                assert partner == lam.conjugate()
                assert np.array_equal(dec.eigenvectors[:, i + 1],
                                      np.conj(dec.eigenvectors[:, i]))
    assert seen_complex > 10  # the sweep actually exercised complex spectra


def test_eigenvectors_normalized_to_unit_last_nonzero_component():
    rng = np.random.default_rng(11)
    for _ in range(50):
        dec = eigen3(rng.normal(size=(3, 3)))
        for i in range(3):
            v = dec.eigenvectors[:, i]
            nonzero = [j for j in range(3) if abs(v[j]) > 1e-10 * np.max(np.abs(v))]
            assert v[nonzero[-1]] == 1.0 + 0.0j


def test_defective_matrix_raises_structured_error():
    nilpotent = np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [0.0, 0.0, 0.0]])
    with pytest.raises(DefectiveMatrixError):
        eigen3(nilpotent)
    jordan = np.array([[2.0, 1.0, 0.0], [0.0, 2.0, 0.0], [0.0, 0.0, 5.0]])
    with pytest.raises(DefectiveMatrixError):
        eigen3(jordan)


def test_diagonalizable_repeated_eigenvalue_is_fine():
    dec = eigen3(np.diag([2.0, 2.0, 5.0]))
    assert np.allclose(dec.eigenvalues, [5.0, 2.0, 2.0])
    span = dec.eigenvectors[:, 1:]
    assert np.linalg.matrix_rank(span) == 2


_ROTATION = np.linalg.qr(np.random.default_rng(0).normal(size=(3, 3)))[0]


@pytest.mark.parametrize("diagonal", [(1.0, 1.0 - 5e-8, 1.0 - 1e-7), (1.0, 1.0 - 9.9e-8, 5.0)])
@pytest.mark.parametrize("rotated", [False, True])
def test_clustered_spectrum_gives_accurate_independent_eigenpairs(diagonal, rotated):
    # the cubic's roots of these spectra are off by up to 1e-5 and 4e-10
    A = _ROTATION @ np.diag(diagonal) @ _ROTATION.T if rotated else np.diag(diagonal)
    dec = eigen3(A)
    assert np.linalg.matrix_rank(dec.eigenvectors) == 3
    norm_a = np.linalg.norm(A)
    assert np.allclose(dec.eigenvalues, sorted(diagonal, reverse=True), rtol=0, atol=1e-12 * norm_a)
    for i in range(3):
        v = dec.eigenvectors[:, i]
        residual = np.linalg.norm(A @ v - dec.eigenvalues[i] * v)
        assert residual < 1e-12 * norm_a * np.linalg.norm(v)


@pytest.mark.parametrize("jordan", [
    [[2.0, 1.0, 0.0], [0.0, 2.0, 0.0], [0.0, 0.0, 5.0]],
    [[2.0, 1.0, 0.0], [0.0, 2.0, 1.0], [0.0, 0.0, 2.0]],
])
def test_rounded_jordan_block_still_raises(jordan):
    # the similarity's rounding splits the repeated root into a near cluster
    S = np.random.default_rng(1).normal(size=(3, 3))
    with pytest.raises(DefectiveMatrixError):
        eigen3(S @ np.array(jordan) @ np.linalg.inv(S))


def test_zero_matrix_decomposition():
    dec = eigen3(np.zeros((3, 3)))
    assert np.all(dec.eigenvalues == 0.0)
    assert np.allclose(dec.eigenvectors, np.eye(3))


def test_nonfinite_matrix_rejected():
    A = np.eye(3)
    A[1, 1] = np.inf
    with pytest.raises(ValueError, match="finite"):
        eigen3(A)


# --- classify ---------------------------------------------------------------

def _decomposition_with(values):
    return EigenDecomposition(np.array(values, dtype=complex), np.eye(3, dtype=complex))


def test_reported_spectrum_classifies_asymptotically_stable():
    report = classify(_decomposition_with(PRINTED_EIGENVALUES))
    assert report.classification is StabilityClass.ASYMPTOTICALLY_STABLE
    assert report.hyperbolic
    assert report.spectral_abscissa == pytest.approx(-0.0191783, abs=1e-7)


def test_positive_real_part_is_unstable():
    report = classify(_decomposition_with([1.0, -1.0, -2.0]))
    assert report.classification is StabilityClass.UNSTABLE
    assert report.hyperbolic


def test_zero_real_part_is_non_hyperbolic():
    report = classify(_decomposition_with([0.0, -1.0, -2.0]))
    assert report.classification is StabilityClass.NON_HYPERBOLIC
    assert not report.hyperbolic


# --- fit_linearized / evaluate_linearized ------------------------------------

def _paper_system_decomposition():
    p = ModelParams()
    infected = next(e for e in equilibria(p, 0.0, 0.0, ModelKind.BASIC)
                    if e.kind is EquilibriumKind.INFECTED)
    return eigen3(jacobian(p, 0.0, 0.0, ModelKind.BASIC, infected.point))


def test_fitting_an_eigenvector_gives_a_basis_coefficient():
    dec = _paper_system_decomposition()
    for i in range(3):  # x0 = V_i must fit as the i-th unit coefficient
        sol = fit_linearized(dec, dec.eigenvectors[:, i])
        expected = np.zeros(3, dtype=complex)
        expected[i] = 1.0
        assert np.max(np.abs(sol.coefficients - expected)) < 1e-10


def test_real_perturbation_gives_conjugate_coefficients_and_real_evaluation():
    dec = _paper_system_decomposition()
    x0 = np.array([1.0, 0.1, 5.0])
    sol = fit_linearized(dec, x0)
    c = sol.coefficients
    assert abs(c[0] - c[1].conjugate()) < 1e-10 * max(1.0, abs(c[0]))
    assert abs(c[2].imag) < 1e-10 * max(1.0, abs(c[2]))
    for t in (0.0, 1.0, 10.0, 100.0):
        total = sol.eigenvectors @ (c * np.exp(sol.eigenvalues * t))
        assert np.max(np.abs(total.imag)) < 1e-10 * max(1.0, np.max(np.abs(total)))


def test_evaluation_at_zero_reproduces_the_fit():
    dec = _paper_system_decomposition()
    x0 = np.array([1.0, 0.1, 5.0])
    sol = fit_linearized(dec, x0)
    assert np.max(np.abs(evaluate_linearized(sol, 0.0) - x0)) < 1e-8 * np.linalg.norm(x0)


def test_third_component_matches_real_cosine_form():
    # With conjugate modes c2 = conj(c1) and unit third components, the
    # third state component collapses (Euler) to
    #   c3*exp(s3*t) + 2*exp(a*t)*(Re c1 * cos(b*t) - Im c1 * sin(b*t)).
    dec = _paper_system_decomposition()
    x0 = np.array([2.0, -0.3, 1.5])
    sol = fit_linearized(dec, x0)
    lam_pair = sol.eigenvalues[0]
    c_pair = sol.coefficients[0]
    lam_real = sol.eigenvalues[2].real
    c_real = sol.coefficients[2].real
    for t in (0.0, 0.5, 3.0, 25.0, 80.0):
        direct = evaluate_linearized(sol, t)[2]
        cosine_form = (
            c_real * cmath.exp(lam_real * t).real
            + 2.0 * np.exp(lam_pair.real * t)
            * (c_pair.real * np.cos(lam_pair.imag * t)
               - c_pair.imag * np.sin(lam_pair.imag * t))
        )
        assert direct == pytest.approx(cosine_form, rel=1e-9, abs=1e-12)


def test_linearized_solution_decays_in_stable_system():
    dec = _paper_system_decomposition()
    x0 = np.array([1.0, 0.1, 5.0])
    sol = fit_linearized(dec, x0)
    horizon = 10.0 / abs(np.max(dec.eigenvalues.real))
    assert np.linalg.norm(evaluate_linearized(sol, horizon)) < 1e-3 * np.linalg.norm(x0)


def test_near_parallel_eigenvectors_raise_conditioning_error():
    vectors = np.array([
        [1.0, 1.0, 0.0],
        [0.0, 1e-10, 0.0],
        [0.0, 0.0, 1.0],
    ], dtype=complex)
    dec = EigenDecomposition(np.array([1.0, 2.0, 3.0], dtype=complex), vectors)
    with pytest.raises(ConditioningError):
        fit_linearized(dec, np.array([1.0, 0.0, 0.0]))


@pytest.mark.parametrize("kind", list(ModelKind))
def test_modal_fit_agrees_with_lapack_on_seeded_model_eigenvectors(kind):
    rng = np.random.default_rng(list(ModelKind).index(kind))
    checked = 0
    for _ in range(40):
        params = ModelParams(**{name: x * rng.uniform(0.5, 2.0)
                                for name, x in asdict(ModelParams()).items()})
        u1 = rng.uniform(0.0, 0.6) if kind is ModelKind.TWO_CONTROL else 0.0
        u2 = rng.uniform(0.0, 0.6) if kind is not ModelKind.BASIC else 0.0
        for eq in equilibria(params, u1, u2, kind):
            dec = eigen3(jacobian(params, u1, u2, kind, eq.point))
            V, x0 = dec.eigenvectors, rng.uniform(-10.0, 10.0, 3)
            expected = np.linalg.solve(V, x0.astype(complex))
            coefficients, cond = _solve_conditioned(V.tolist(), x0.astype(complex).tolist())
            assert np.max(np.abs(coefficients - expected)) <= 1e-12 * np.max(np.abs(expected))
            assert cond == pytest.approx(np.linalg.cond(V, 1), rel=1e-12)
            assert np.array_equal(fit_linearized(dec, x0).coefficients, coefficients)
            checked += 1
    assert checked >= 40


def test_singular_eigenvector_matrix_raises_conditioning_error():
    vectors = np.array([[1.0, 1.0, 0.0], [1.0, 1.0, 0.0], [0.0, 0.0, 1.0]], dtype=complex)
    dec = EigenDecomposition(np.array([1.0, 2.0, 3.0], dtype=complex), vectors)
    with pytest.raises(ConditioningError, match=r"^eigenvector matrix condition number inf "
                                                r"exceeds 1e\+08$"):
        fit_linearized(dec, np.array([1.0, 0.0, 0.0]))


@pytest.mark.parametrize("target", [1e8 + 100.0, 1e8 - 100.0])
def test_condition_number_bound_is_1e8(target):
    # [[1, 1, 0], [0, e, 0], [0, 0, 1]] has 1-norm condition number 2/e + 2
    e = 2.0 / (target - 2.0)
    vectors = np.array([[1.0, 1.0, 0.0], [0.0, e, 0.0], [0.0, 0.0, 1.0]], dtype=complex)
    assert (np.linalg.cond(vectors, 1) > 1e8) == (target > 1e8)
    dec = EigenDecomposition(np.array([1.0, 2.0, 3.0], dtype=complex), vectors)
    if target > 1e8:
        with pytest.raises(ConditioningError, match=r"condition number 1e\+08 exceeds 1e\+08"):
            fit_linearized(dec, np.array([1.0, 0.0, 0.0]))
    else:
        assert fit_linearized(dec, np.array([1.0, 0.0, 0.0])).coefficients[0] == 1.0


def test_array_of_times_gives_one_row_per_time():
    sol = fit_linearized(_paper_system_decomposition(), np.array([1.0, 0.1, 5.0]))
    ts = np.linspace(0.0, 40.0, 401)
    rows = evaluate_linearized(sol, ts)
    stacked = np.array([evaluate_linearized(sol, t) for t in ts])
    assert rows.shape == (401, 3)
    assert np.all(np.abs(rows - stacked) <= 1e-12 * np.abs(stacked))
    modal = np.array([(sol.eigenvectors @ (sol.coefficients * np.array(
        [cmath.exp(lam * t) for lam in sol.eigenvalues]))).real for t in ts])
    assert np.max(np.abs(rows - modal)) <= 1e-12 * np.max(np.abs(modal))


def test_scalar_time_gives_one_state():
    sol = fit_linearized(_paper_system_decomposition(), np.array([1.0, 0.1, 5.0]))
    assert evaluate_linearized(sol, 2.5).shape == (3,)
    assert evaluate_linearized(sol, np.float64(2.5)).shape == (3,)


def test_conjugate_pair_sorts_before_a_real_eigenvalue_of_equal_real_part():
    # spectrum {2i, 0, -2i}: all three real parts tie at 0
    A = np.array([[-2.0, -2.0, -1.0], [2.0, 2.0, 1.0], [2.0, -2.0, 0.0]])
    dec = eigen3(A)
    assert dec.eigenvalues[0].imag > 0.0
    assert dec.eigenvalues[1] == dec.eigenvalues[0].conjugate()
    assert dec.eigenvalues[2].imag == 0.0
    assert np.allclose(dec.eigenvalues, [2j, -2j, 0.0], atol=1e-12)
    assert np.array_equal(dec.eigenvectors[:, 1], np.conj(dec.eigenvectors[:, 0]))
    for lam, vec in zip(dec.eigenvalues, dec.eigenvectors.T):
        assert np.linalg.norm(A @ vec - lam * vec) <= 1e-12 * np.linalg.norm(vec)
