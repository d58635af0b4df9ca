"""Each public guard refuses what it names: the shape, flatness, order and finiteness
checks of the value types and entry points, each with its own message."""

import math
import re

import numpy as np
import pytest

from viradyn import (
    DEFAULT_INITIAL,
    EfficacySchedule,
    EigenDecomposition,
    MeshSpec,
    ModelKind,
    ModelParams,
    ScenarioConfig,
    Trajectory,
    TreatmentWindow,
    compare_linearization,
    eigen3,
    fit_linearized,
    integrate,
    rk4_step,
)

BASIC = ScenarioConfig(ModelKind.BASIC, ModelParams(), MeshSpec(0.0, 5.0, 0.1), DEFAULT_INITIAL,
                       EfficacySchedule())


def zero_field(t, w):
    return np.zeros_like(w)


@pytest.mark.parametrize("call, message", [
    (lambda: EigenDecomposition(np.zeros(2), np.eye(3)),
     "decomposition must hold 3 eigenvalues and 3x3 eigenvectors"),
    (lambda: eigen3(np.eye(2)), "expected a 3x3 matrix, got shape (2, 2)"),
    (lambda: fit_linearized(eigen3(np.eye(3)), [1.0, 2.0]),
     "initial perturbation must be a 3-vector"),
    (lambda: compare_linearization(BASIC, [1.0, 0.1]), "perturbation must be a 3-vector"),
    (lambda: Trajectory(np.array([0.0]), np.zeros((1, 3))),
     "trajectory needs at least two strictly increasing times"),
    (lambda: Trajectory(np.array([1.0, 0.0]), np.zeros((2, 3))),
     "trajectory needs at least two strictly increasing times"),
    (lambda: rk4_step(zero_field, 0.0, np.array([1.0, math.nan, 0.0]), 0.1),
     "state passed to rk4_step must be finite"),
    (lambda: integrate(zero_field, MeshSpec(0.0, 1.0, 0.5), np.zeros((3, 1))),
     "initial state must be a flat vector"),
    (lambda: TreatmentWindow(0.0, math.inf, 0.5, 0.5), "window t_end must be finite"),
    (lambda: TreatmentWindow(math.nan, 10.0, 0.5, 0.5), "window t_start must be finite"),
], ids=["eigen-decomposition-shape", "eigen3-shape", "fit-linearized-shape",
        "compare-linearization-shape", "trajectory-one-time", "trajectory-decreasing-times",
        "rk4-step-non-finite-state", "integrate-non-flat-initial", "window-infinite-end",
        "window-nan-start"])
def test_each_public_guard_raises_its_own_message(call, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()
