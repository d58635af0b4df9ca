"""Equilibria, Jacobians, 3x3 eigen-decomposition, and local linearization.

The model admits two closed-form critical points: the uninfected state
(s/d, 0, 0) and, when the infection can sustain itself, the infected
state

    ( m1*m2/(k*beta),  s/m2 - d*m1/(beta*k),  k*s/(m1*m2) - d/beta ).

Treatment variants reuse the same formulas with the effective rates
substituted for beta and k.  Around a critical point the dynamics are
governed by the Jacobian

    [ -d - beta*V   0     -beta*T ]
    [  beta*V      -m2     beta*T ]
    [  0            k     -m1     ]

whose eigen-pairs (lambda_i, V_i) give the explicit local solution
x(t) = sum_i c_i * V_i * exp(lambda_i * t) once the coefficients c_i are
fitted to an initial perturbation.

Eigenvalues are found as roots of the cubic characteristic polynomial
(trigonometric form for three real roots, Cardano otherwise, then a
Newton polish) and eigenvectors by null-space extraction from
A - lambda*I with partial pivoting.  Eigenvectors are scaled so the last
nonzero component equals 1.
"""

from __future__ import annotations

import cmath
import enum
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConditioningError, DefectiveMatrixError
from .model import ModelKind, ModelParams, SystemState, effective_rates

__all__ = [
    "EquilibriumKind",
    "Equilibrium",
    "EigenDecomposition",
    "StabilityClass",
    "StabilityReport",
    "LinearizedSolution",
    "equilibria",
    "jacobian",
    "eigen3",
    "classify",
    "fit_linearized",
    "evaluate_linearized",
]

#: real parts within this of zero make an equilibrium non-hyperbolic
STABILITY_TOL = 1e-10

_MAX_EIGENVECTOR_COND = 1e8


class EquilibriumKind(enum.Enum):
    UNINFECTED = "uninfected"
    INFECTED = "infected"


@dataclass(frozen=True)
class Equilibrium:
    point: SystemState
    kind: EquilibriumKind


@dataclass(frozen=True)
class EigenDecomposition:
    """Eigenvalues (descending real part, conjugate pairs adjacent) with
    eigenvectors as the matching columns of ``eigenvectors``."""

    eigenvalues: np.ndarray   # shape (3,), complex
    eigenvectors: np.ndarray  # shape (3, 3), complex; column i pairs with eigenvalues[i]

    def __post_init__(self):
        values = np.asarray(self.eigenvalues, dtype=complex)
        vectors = np.asarray(self.eigenvectors, dtype=complex)
        if values.shape != (3,) or vectors.shape != (3, 3):
            raise ValueError("decomposition must hold 3 eigenvalues and 3x3 eigenvectors")
        values.flags.writeable = False
        vectors.flags.writeable = False
        object.__setattr__(self, "eigenvalues", values)
        object.__setattr__(self, "eigenvectors", vectors)


class StabilityClass(enum.Enum):
    ASYMPTOTICALLY_STABLE = "asymptotically stable"
    UNSTABLE = "unstable"
    NON_HYPERBOLIC = "non-hyperbolic"


@dataclass(frozen=True)
class StabilityReport:
    classification: StabilityClass
    hyperbolic: bool
    spectral_abscissa: float


@dataclass(frozen=True)
class LinearizedSolution:
    """Modal form x(t) = sum_i c_i * V_i * exp(lambda_i * t)."""

    eigenvalues: np.ndarray   # (3,) complex
    eigenvectors: np.ndarray  # (3, 3) complex columns
    coefficients: np.ndarray  # (3,) complex

    @property
    def modes(self) -> list[tuple[complex, np.ndarray, complex]]:
        return [
            (complex(self.eigenvalues[i]), self.eigenvectors[:, i], complex(self.coefficients[i]))
            for i in range(3)
        ]


def equilibria(params: ModelParams, u1: float, u2: float,
               kind: ModelKind) -> list[Equilibrium]:
    """Critical points under frozen efficacies (u1, u2).

    The uninfected point (s/d, 0, 0) always exists.  The infected point
    is included only when the effective rates keep both its T_star and V
    components positive; otherwise the infection cannot persist and the
    nonphysical point is omitted.
    """
    beta_eff, k_eff = effective_rates(kind, params, u1, u2)
    out = [Equilibrium(SystemState(params.s / params.d, 0.0, 0.0),
                       EquilibriumKind.UNINFECTED)]
    if beta_eff * k_eff > 0.0:
        t_eq = params.m1 * params.m2 / (k_eff * beta_eff)
        tstar_eq = params.s / params.m2 - params.d * params.m1 / (beta_eff * k_eff)
        v_eq = k_eff * params.s / (params.m1 * params.m2) - params.d / beta_eff
        if tstar_eq > 0.0 and v_eq > 0.0:
            out.append(Equilibrium(SystemState(t_eq, tstar_eq, v_eq),
                                   EquilibriumKind.INFECTED))
    return out


def jacobian(params: ModelParams, u1: float, u2: float, kind: ModelKind,
             point: SystemState) -> np.ndarray:
    """Jacobian of the right-hand side at ``point`` using effective rates."""
    beta_eff, k_eff = effective_rates(kind, params, u1, u2)
    T, V = point.T, point.V
    return np.array([
        [-params.d - beta_eff * V, 0.0, -beta_eff * T],
        [beta_eff * V, -params.m2, beta_eff * T],
        [0.0, k_eff, -params.m1],
    ])


# ---------------------------------------------------------------------------
# eigen-decomposition of a real 3x3 matrix


def _cubic_roots(a: float, b: float, c: float) -> list[complex]:
    """Roots of x^3 + a*x^2 + b*x + c with real coefficients.

    Three real roots are recovered through the trigonometric form (no
    cancellation), the one-real/conjugate-pair case through Cardano with
    the larger-magnitude cube root picked first.  Conjugate pairs are
    exact by construction.
    """
    shift = -a / 3.0
    p = b - a * a / 3.0
    q = 2.0 * a ** 3 / 27.0 - a * b / 3.0 + c
    disc = (q / 2.0) ** 2 + (p / 3.0) ** 3

    if disc < 0.0:
        # three distinct real roots; p < 0 is guaranteed here
        m = 2.0 * math.sqrt(-p / 3.0)
        cos3phi = min(1.0, max(-1.0, 3.0 * q / (p * m)))
        phi = math.acos(cos3phi) / 3.0
        return [
            complex(m * math.cos(phi) + shift),
            complex(m * math.cos(phi - 2.0 * math.pi / 3.0) + shift),
            complex(m * math.cos(phi - 4.0 * math.pi / 3.0) + shift),
        ]

    r = math.sqrt(disc)
    u3 = -q / 2.0 - math.copysign(r, q)
    u = math.copysign(abs(u3) ** (1.0 / 3.0), u3)
    v = 0.0 if u == 0.0 else -p / (3.0 * u)
    real_root = u + v + shift
    re = -(u + v) / 2.0 + shift
    im = (math.sqrt(3.0) / 2.0) * (u - v)
    return [complex(real_root), complex(re, im), complex(re, -im)]


def _polish_root(z: complex, a: float, b: float, c: float) -> complex:
    """A couple of Newton steps on x^3 + a*x^2 + b*x + c."""
    for _ in range(2):
        f = ((z + a) * z + b) * z + c
        df = (3.0 * z + 2.0 * a) * z + b
        if abs(df) < 1e-30:
            break
        delta = f / df
        if abs(delta) > 0.1 * max(1.0, abs(z)):
            break  # near-multiple root; Newton would wander
        z = z - delta
    return z


def _null_space(B: np.ndarray, count: int, tol: float) -> list[np.ndarray]:
    """Null-space basis of a numerically singular 3x3 complex matrix.

    Gaussian elimination with partial pivoting; columns whose pivot falls
    below ``tol`` are free and each yields one basis vector.  When the
    eigenvalue is known to be simple but rounding left every pivot above
    the tolerance, the weakest (last) pivot is released instead.
    """
    n = 3
    U = B.astype(complex, copy=True)
    pivots: list[tuple[int, int]] = []  # (row, col) in echelon order
    row = 0
    for col in range(n):
        if row == n:
            break
        lead = row + int(np.argmax(np.abs(U[row:, col])))
        if abs(U[lead, col]) <= tol:
            U[row:, col] = 0.0
            continue
        if lead != row:
            U[[row, lead]] = U[[lead, row]]
        for r in range(row + 1, n):
            factor = U[r, col] / U[row, col]
            U[r, col:] -= factor * U[row, col:]
            U[r, col] = 0.0
        pivots.append((row, col))
        row += 1

    pivot_cols = {col for _, col in pivots}
    free_cols = [col for col in range(n) if col not in pivot_cols]
    if len(free_cols) < count:
        if count == 1 and pivots:
            # matrix is singular in exact arithmetic: release the last pivot
            row, col = pivots.pop()
            U[row, :] = 0.0
            free_cols.append(col)
            free_cols.sort()
        else:
            raise DefectiveMatrixError(
                f"eigenspace has dimension {len(free_cols)}, need {count}"
            )

    basis = []
    for free in free_cols[:count]:
        x = np.zeros(n, dtype=complex)
        x[free] = 1.0
        for row, col in reversed(pivots):
            acc = U[row, col + 1:] @ x[col + 1:]
            x[col] = -acc / U[row, col]
        basis.append(x)
    return basis


def _normalize_last_nonzero(v: np.ndarray) -> np.ndarray:
    amax = float(np.max(np.abs(v)))
    idx = None
    for j in range(len(v) - 1, -1, -1):
        if abs(v[j]) > 1e-10 * amax:
            idx = j
            break
    if idx is None:  # unreachable: null-space vectors carry a unit entry
        raise DefectiveMatrixError("zero eigenvector")
    return v / v[idx]


def eigen3(A: np.ndarray) -> EigenDecomposition:
    """Eigenvalues and eigenvectors of a real 3x3 matrix.

    Eigenvalues are sorted by descending real part (ties by descending
    imaginary part), which keeps conjugate pairs adjacent, and each
    eigenvector is scaled so its last nonzero component is 1.  A repeated
    eigenvalue with a rank-deficient eigenspace raises
    :class:`DefectiveMatrixError` instead of returning invalid vectors.
    """
    A = np.asarray(A, dtype=float)
    if A.shape != (3, 3):
        raise ValueError(f"expected a 3x3 matrix, got shape {A.shape}")
    if not np.all(np.isfinite(A)):
        raise ValueError("matrix entries must be finite")

    scale = float(np.max(np.abs(A)))
    if scale == 0.0:
        return EigenDecomposition(np.zeros(3, dtype=complex), np.eye(3, dtype=complex))
    B = A / scale

    # characteristic polynomial of B: x^3 + a*x^2 + b*x + c
    tr = B[0, 0] + B[1, 1] + B[2, 2]
    minors = (
        B[1, 1] * B[2, 2] - B[1, 2] * B[2, 1]
        + B[0, 0] * B[2, 2] - B[0, 2] * B[2, 0]
        + B[0, 0] * B[1, 1] - B[0, 1] * B[1, 0]
    )
    det = (
        B[0, 0] * (B[1, 1] * B[2, 2] - B[1, 2] * B[2, 1])
        - B[0, 1] * (B[1, 0] * B[2, 2] - B[1, 2] * B[2, 0])
        + B[0, 2] * (B[1, 0] * B[2, 1] - B[1, 1] * B[2, 0])
    )
    a, b, c = -float(tr), float(minors), -float(det)

    group_tol = 1e-7  # on the scaled (unit-norm) matrix

    roots = [_polish_root(z, a, b, c) for z in _cubic_roots(a, b, c)]
    # snap round-off imaginary parts and restore exact conjugate pairing
    cleaned: list[complex] = []
    for z in roots:
        if abs(z.imag) <= 1e-12 * max(1.0, abs(z)):
            cleaned.append(complex(z.real))
        else:
            cleaned.append(z)
    pos = [i for i, z in enumerate(cleaned) if z.imag > 0.0]
    neg = [i for i, z in enumerate(cleaned) if z.imag < 0.0]
    if len(pos) == 1 and len(neg) == 1:
        z = cleaned[pos[0]]
        if abs(z.imag) <= group_tol:
            # a double real root that round-off pushed off the axis
            cleaned[pos[0]] = complex(z.real)
            cleaned[neg[0]] = complex(z.real)
        else:
            cleaned[neg[0]] = z.conjugate()

    lam = sorted(cleaned, key=lambda z: (-z.real, -z.imag))

    # group repeated eigenvalues to know each multiplicity; a real cubic can
    # only repeat real roots, so complex values always stand alone
    groups: list[list[int]] = []
    for i, z in enumerate(lam):
        if (groups and z.imag == 0.0 and lam[groups[-1][0]].imag == 0.0
                and abs(z - lam[groups[-1][0]]) <= group_tol):
            groups[-1].append(i)
        else:
            groups.append([i])

    vectors: list[np.ndarray | None] = [None] * 3
    rank_tol = 1e-8
    for group in groups:
        rep = lam[group[0]]
        if rep.imag < 0.0:
            continue  # conjugate of an already-processed eigenvalue
        mean = sum(lam[i] for i in group) / len(group)
        basis = _null_space(B - mean * np.eye(3), len(group), rank_tol)
        for i, vec in zip(group, basis):
            vectors[i] = _normalize_last_nonzero(vec)
    for i, z in enumerate(lam):
        if vectors[i] is None:  # negative member of a conjugate pair
            partner = next(j for j, w in enumerate(lam) if w == z.conjugate() and vectors[j] is not None)
            vectors[i] = np.conj(vectors[partner])

    values = np.array(lam, dtype=complex) * scale
    matrix = np.column_stack(vectors)
    return EigenDecomposition(values, matrix)


def classify(eig: EigenDecomposition, tol: float = STABILITY_TOL) -> StabilityReport:
    """Local stability from the eigenvalue real parts.

    Asymptotically stable when every real part is below -tol; hyperbolic
    when no real part sits within tol of zero (the case in which the
    linearization is faithful to the nonlinear flow near the point).
    """
    re = eig.eigenvalues.real
    abscissa = float(np.max(re))
    hyperbolic = bool(np.all(np.abs(re) > tol))
    if not hyperbolic:
        cls = StabilityClass.NON_HYPERBOLIC
    elif abscissa < -tol:
        cls = StabilityClass.ASYMPTOTICALLY_STABLE
    else:
        cls = StabilityClass.UNSTABLE
    return StabilityReport(cls, hyperbolic, abscissa)


def fit_linearized(eig: EigenDecomposition, x0) -> LinearizedSolution:
    """Coefficients c solving [V1 V2 V3] c = x0 for the modal solution."""
    x0 = np.asarray(x0, dtype=complex)
    if x0.shape != (3,):
        raise ValueError("initial perturbation must be a 3-vector")
    Vm = eig.eigenvectors
    cond = np.linalg.cond(Vm, 1)  # LU-based, the same LAPACK path as the solve below
    if not np.isfinite(cond) or cond > _MAX_EIGENVECTOR_COND:
        raise ConditioningError(
            f"eigenvector matrix condition number {cond:.3g} exceeds {_MAX_EIGENVECTOR_COND:.0e}"
        )
    coeff = np.linalg.solve(Vm, x0)
    return LinearizedSolution(eig.eigenvalues.copy(), Vm.copy(), coeff)


def evaluate_linearized(sol: LinearizedSolution, t: float) -> np.ndarray:
    """Real part of sum_i c_i * V_i * exp(lambda_i * t) at time t."""
    weights = sol.coefficients * np.array([cmath.exp(lam * t) for lam in sol.eigenvalues])
    return np.real(sol.eigenvectors @ weights)
