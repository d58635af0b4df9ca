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
nonzero component is exactly 1.
"""

from __future__ import annotations

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
        if count == 1:
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


def eigen3(A: np.ndarray) -> EigenDecomposition:
    """Eigenvalues and eigenvectors of a real 3x3 matrix.

    Eigenvalues are sorted by descending real part; on a tie a conjugate
    pair comes before a real eigenvalue, the positive imaginary part
    first, so pairs are always adjacent.  Each eigenvector is scaled so
    its last nonzero component is exactly 1.  A repeated eigenvalue with
    a rank-deficient eigenspace raises :class:`DefectiveMatrixError`
    instead of returning invalid vectors.
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
    (b00, b01, b02), (b10, b11, b12), (b20, b21, b22) = B.tolist()
    a = -(b00 + b11 + b22)
    b = b11 * b22 - b12 * b21 + b00 * b22 - b02 * b20 + b00 * b11 - b01 * b10
    c = -(b00 * (b11 * b22 - b12 * b21)
          - b01 * (b10 * b22 - b12 * b20)
          + b02 * (b10 * b21 - b11 * b20))

    # every eigenvalue of the unit-scaled B has |z| <= 3, so one absolute
    # tolerance both snaps round-off off the real axis and groups repeats
    group_tol = 1e-7
    rank_tol = 1e-8
    roots = (_polish_root(z, a, b, c) for z in _cubic_roots(a, b, c))
    lam = sorted((complex(z.real) if abs(z.imag) <= group_tol else z for z in roots),
                 key=lambda z: (-z.real, -abs(z.imag), -z.imag))

    vectors: list[np.ndarray] = []
    for i, z in enumerate(lam):
        if z.imag < 0.0:  # its conjugate sorts just before it
            vectors.append(np.conj(vectors[-1]))
        elif len(vectors) == i:  # else z is a repeat of the previous root
            # only real roots repeat; those within group_tol share one eigenspace
            group = [w for w in lam[i:] if w.imag == z.imag and abs(w - z) <= group_tol]
            for vec in _null_space(B - sum(group) / len(group) * np.eye(3), len(group),
                                   rank_tol):
                last = np.flatnonzero(vec)[-1]
                vec = vec / vec[last]
                vec[last] = 1.0
                vectors.append(vec)

    values = np.array(lam, dtype=complex) * scale
    return EigenDecomposition(values, np.column_stack(vectors))


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


def evaluate_linearized(sol: LinearizedSolution, t) -> np.ndarray:
    """Real part of sum_i c_i * V_i * exp(lambda_i * t).

    A scalar t gives shape (3,); an array of times gives one row per time.
    """
    weights = sol.coefficients * np.exp(np.multiply.outer(np.asarray(t, dtype=float),
                                                          sol.eigenvalues))
    # multiply-and-sum, not a complex (n,3) @ (3,3) matmul: that maps more BLAS code (peak RSS)
    return np.real((weights[..., None, :] * sol.eigenvectors).sum(axis=-1))
