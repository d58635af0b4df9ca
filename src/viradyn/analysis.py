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
    nonphysical point is omitted.  ValueError, naming the point, when the
    parameters overflow one of its components.
    """
    beta_eff, k_eff = effective_rates(kind, params, u1, u2)
    out = [_equilibrium(EquilibriumKind.UNINFECTED, params.s / params.d, 0.0, 0.0)]
    if beta_eff * k_eff > 0.0:
        t_eq = params.m1 * params.m2 / (k_eff * beta_eff)
        tstar_eq = params.s / params.m2 - params.d * params.m1 / (beta_eff * k_eff)
        v_eq = k_eff * params.s / (params.m1 * params.m2) - params.d / beta_eff
        if tstar_eq > 0.0 and v_eq > 0.0:
            out.append(_equilibrium(EquilibriumKind.INFECTED, t_eq, tstar_eq, v_eq))
    return out


def _equilibrium(kind: EquilibriumKind, T: float, T_star: float, V: float) -> Equilibrium:
    try:
        return Equilibrium(SystemState(T, T_star, V), kind)
    except ValueError as err:
        raise ValueError(f"the parameters overflow the {kind.value} equilibrium: {err}") from None


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


def _null_space(B: list[list[float]], mu: complex, count: int,
                tol: float) -> list[list[complex]]:
    """Up to ``count`` null-space basis vectors of B - mu*I, for the rows of a 3x3 B.

    Gaussian elimination with partial pivoting; columns whose pivot falls
    below ``tol`` are free and each yields one basis vector.  When the
    eigenvalue is known to be simple but rounding left every pivot above
    the tolerance, the weakest pivot is released instead.
    """
    U = [row[:] for row in B]
    for r in range(3):
        U[r][r] -= mu
    pivots: list[tuple[int, int]] = []  # (row, col) in echelon order
    for col in range(3):
        row = lead = len(pivots)
        biggest = -1.0
        for r in range(row, 3):
            if abs(U[r][col]) > biggest:
                lead, biggest = r, abs(U[r][col])
        if biggest <= tol:
            continue  # a free column
        U[row], U[lead] = U[lead], U[row]
        top = U[row]
        for r in range(row + 1, 3):  # entries left of col + 1 are never read again
            factor = U[r][col] / top[col]
            U[r] = [x - factor * y for x, y in zip(U[r], top)]
        pivots.append((row, col))

    pivot_cols = {col for _, col in pivots}
    free_cols = [col for col in range(3) if col not in pivot_cols]
    if not free_cols and count == 1:
        # matrix is singular in exact arithmetic: release the weakest pivot
        weakest = min(pivots, key=lambda rc: abs(U[rc[0]][rc[1]]))
        pivots.remove(weakest)
        free_cols = [weakest[1]]

    basis = []
    for free in free_cols[:count]:
        x: list[complex] = [0.0, 0.0, 0.0]
        x[free] = 1.0
        for row, col in reversed(pivots):  # back substitution
            u = U[row]
            x[col] = -sum([u[j] * x[j] for j in range(col + 1, 3)], 0.0) / u[col]
        basis.append(x)
    return basis


def _det3(m) -> complex:
    (m00, m01, m02), (m10, m11, m12), (m20, m21, m22) = m
    return (m00 * (m11 * m22 - m12 * m21)
            - m01 * (m10 * m22 - m12 * m20)
            + m02 * (m10 * m21 - m11 * m20))


def _sorted_roots(B: list[list[float]], snap_tol: float) -> tuple[list[complex], float]:
    """Eigenvalues of B as roots of its characteristic polynomial, in eigen3's
    order, and the largest distance between two roots before their polish.

    Imaginary parts within ``snap_tol`` of zero are round-off and dropped.
    """
    (b00, b01, b02), (b10, b11, b12), (b20, b21, b22) = B
    # x^3 + a*x^2 + b*x + c
    a = -(b00 + b11 + b22)
    b = b11 * b22 - b12 * b21 + b00 * b22 - b02 * b20 + b00 * b11 - b01 * b10
    c = -_det3(B)
    roots = _cubic_roots(a, b, c)
    spread = max(abs(roots[i] - roots[i - 1]) for i in range(3))  # each pair once
    roots = (_polish_root(z, a, b, c) for z in roots)
    return sorted((complex(z.real) if abs(z.imag) <= snap_tol else z for z in roots),
                  key=lambda z: (-z.real, -abs(z.imag), -z.imag)), spread


def _rayleigh_refined(B: list[list[float]], z: float) -> tuple[float, list[float]]:
    """A real eigenpair of B near the simple root z, by Rayleigh quotient iteration.

    The quotient v.Bv / v.v of a vector v is the value that minimizes |Bv - zv|.
    """
    for _ in range(3):
        (v,) = _null_space(B, z, 1, 0.0)  # no tolerance: z may lie within it of another root
        Bv = [sum([b * x for b, x in zip(row, v)]) for row in B]
        z = sum([x * y for x, y in zip(v, Bv)]) / sum([x * x for x in v])
    return z, v


def eigen3(A: np.ndarray) -> EigenDecomposition:
    """Eigenvalues and eigenvectors of a real 3x3 matrix.

    Eigenvalues are sorted by descending real part; on a tie a conjugate
    pair comes before a real eigenvalue, the positive imaginary part
    first, so pairs are always adjacent.  Each eigenvector is scaled so
    its last nonzero component is exactly 1.  Roots the cubic places only
    roughly, in a cluster, are solved again from A - (tr A/3)*I or refined
    by Rayleigh quotient iteration.  A repeated eigenvalue with a
    rank-deficient eigenspace raises :class:`DefectiveMatrixError`
    instead of returning invalid vectors.
    """
    A = np.asarray(A, dtype=float)
    if A.shape != (3, 3):
        raise ValueError(f"expected a 3x3 matrix, got shape {A.shape}")
    rows = A.tolist()
    entries = rows[0] + rows[1] + rows[2]
    if not all(map(math.isfinite, entries)):
        raise ValueError("matrix entries must be finite")

    scale = max(map(abs, entries))
    if scale == 0.0:
        return EigenDecomposition(np.zeros(3, dtype=complex), np.eye(3, dtype=complex))
    # every eigenvalue of the unit-scaled B has |z| <= 3, so one absolute
    # tolerance both snaps round-off off the real axis and groups repeats
    group_tol = 1e-7
    rank_tol = 1e-8
    B = [[x / scale for x in row] for row in rows]
    lam, spread = _sorted_roots(B, group_tol)
    shift = 0.0
    clustered = spread < 1e-4
    if clustered:
        # the cubic blurs a cluster of roots; A - (tr A/3)*I has them apart
        shift = (rows[0][0] + rows[1][1] + rows[2][2]) / 3.0
        for r in range(3):
            rows[r][r] -= shift
        scale = max(abs(x) for row in rows for x in row)
        if scale == 0.0:  # A is shift * I
            return EigenDecomposition(np.full(3, shift, dtype=complex), np.eye(3, dtype=complex))
        B = [[x / scale for x in row] for row in rows]
        lam, _ = _sorted_roots(B, group_tol)

    values: list[complex] = []
    vectors: list[list[complex]] = []
    for i, z in enumerate(lam):
        if z.imag < 0.0:  # its conjugate sorts just before it
            values.append(z)
            vectors.append([x.conjugate() for x in vectors[-1]])
        elif len(vectors) == i:  # else z is a repeat of the previous root
            # only real roots repeat; those within group_tol share one eigenspace,
            # unless it is smaller than the group: then each root is a simple one
            # that the cubic placed too roughly, refined by Rayleigh quotients
            group = [w for w in lam[i:] if w.imag == z.imag and abs(w - z) <= group_tol]
            mu = sum(group) / len(group)
            # a real shift keeps the elimination in floats, with the same values
            basis = _null_space(B, mu if mu.imag else mu.real, len(group), rank_tol)
            if len(basis) < len(group):
                clustered = True
                pairs = [_rayleigh_refined(B, w.real) for w in group]
                group, basis = zip(*sorted(pairs, key=lambda pair: -pair[0]))
            values += group
            for vec in basis:
                last = max(j for j in range(3) if vec[j])
                # an exact zero is +0, whatever the sign rounding gave it
                vec = [x / vec[last] if x else 0.0 for x in vec]
                vec[last] = 1.0
                vectors.append(vec)

    # rounding splits the root of a Jordan block by less than group_tol, and its
    # vectors by an angle as small; the vectors of distinct roots have no such bound
    if clustered and abs(_det3(vectors)) <= group_tol * math.prod(
            max(map(abs, vec)) for vec in vectors):
        raise DefectiveMatrixError("a repeated eigenvalue has fewer independent "
                                   "eigenvectors than its multiplicity")
    values = np.array(values, dtype=complex) * scale
    if shift:
        values += shift
    return EigenDecomposition(values, np.array(list(zip(*vectors)), dtype=complex))


def classify(eig: EigenDecomposition, tol: float = STABILITY_TOL) -> StabilityReport:
    """Local stability from the eigenvalue real parts.

    Asymptotically stable when every real part is below -tol; hyperbolic
    when no real part sits within tol of zero (the case in which the
    linearization is faithful to the nonlinear flow near the point).
    """
    re = eig.eigenvalues.real.tolist()
    abscissa = max(re)
    hyperbolic = all(abs(x) > tol for x in re)
    if not hyperbolic:
        cls = StabilityClass.NON_HYPERBOLIC
    elif abscissa < -tol:
        cls = StabilityClass.ASYMPTOTICALLY_STABLE
    else:
        cls = StabilityClass.UNSTABLE
    return StabilityReport(cls, hyperbolic, abscissa)


def _solve_conditioned(V: list[list[complex]], b: list[complex]) -> tuple[list[complex], float]:
    """x solving V x = b for the rows of a 3x3 V, and the 1-norm condition number
    of V (infinite for a zero pivot).  One Gauss-Jordan elimination with partial
    pivoting reduces [V | I | b] to [I | V^-1 | x]."""
    identity = ((1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0))
    rows = [[*row, *unit, y] for row, unit, y in zip(V, identity, b)]
    for col in range(3):
        lead = max(range(col, 3), key=lambda r: abs(rows[r][col]))
        rows[col], rows[lead] = rows[lead], rows[col]
        pivot = rows[col][col]
        if not pivot:
            return [], math.inf
        top = rows[col] = [x / pivot for x in rows[col]]
        for r in range(3):
            factor = rows[r][col]
            if r != col and factor:
                rows[r] = [x - factor * y for x, y in zip(rows[r], top)]
    cond = (max(abs(V[0][c]) + abs(V[1][c]) + abs(V[2][c]) for c in range(3))
            * max(abs(rows[0][c]) + abs(rows[1][c]) + abs(rows[2][c]) for c in range(3, 6)))
    return [row[6] for row in rows], cond


def fit_linearized(eig: EigenDecomposition, x0) -> LinearizedSolution:
    """Coefficients c solving [V1 V2 V3] c = x0 for the modal solution,
    on Python complexes."""
    x0 = np.asarray(x0, dtype=complex)
    if x0.shape != (3,):
        raise ValueError("initial perturbation must be a 3-vector")
    Vm = eig.eigenvectors
    coeff, cond = _solve_conditioned(Vm.tolist(), x0.tolist())
    if not cond <= _MAX_EIGENVECTOR_COND:  # also a NaN
        raise ConditioningError(
            f"eigenvector matrix condition number {cond:.3g} exceeds {_MAX_EIGENVECTOR_COND:.0e}"
        )
    return LinearizedSolution(eig.eigenvalues.copy(), Vm.copy(), np.array(coeff, dtype=complex))


def evaluate_linearized(sol: LinearizedSolution, t) -> np.ndarray:
    """Real part of sum_i c_i * V_i * exp(lambda_i * t).

    A scalar t gives shape (3,); an array of times gives one row per time.
    """
    weights = sol.coefficients * np.exp(np.multiply.outer(np.asarray(t, dtype=float),
                                                          sol.eigenvalues))
    # multiply-and-sum, not a complex (n,3) @ (3,3) matmul: that maps more BLAS code (peak RSS)
    return np.real((weights[..., None, :] * sol.eigenvectors).sum(axis=-1))
