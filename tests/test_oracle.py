"""Simulation agrees with the stability analysis: a long run of continuous
therapy ends at the one equilibrium that ``equilibria`` + ``classify`` call
asymptotically stable, and that equilibrium is infected exactly when the
effective reproduction number R0_eff exceeds 1."""

from dataclasses import fields

import numpy as np
from hypothesis import assume, given, settings, strategies as st

from viradyn import (
    DEFAULT_INITIAL,
    EfficacySchedule,
    EquilibriumKind,
    MeshSpec,
    ModelKind,
    ModelParams,
    ScenarioConfig,
    StabilityClass,
    classify,
    effective_rates,
    eigen3,
    equilibria,
    jacobian,
    run,
)

DAYS = 3000.0
MESH = MeshSpec(0.0, DAYS, 0.1)
RATE_NAMES = tuple(f.name for f in fields(ModelParams))


@st.composite
def therapies(draw):
    """Each default rate scaled log-uniformly by [0.5, 2], a kind and its efficacies."""
    scale = st.floats(-1.0, 1.0).map(lambda e: 2.0 ** e)
    base = ModelParams()
    params = ModelParams(**{name: getattr(base, name) * draw(scale) for name in RATE_NAMES})
    kind = draw(st.sampled_from(list(ModelKind)))
    u1 = 0.0 if kind is ModelKind.COMBINED else draw(st.floats(0.0, 0.9))
    u2 = draw(st.floats(0.0, 0.9))
    return params, kind, u1, u2


@settings(max_examples=25, deadline=None)
@given(therapies())
def test_continuous_therapy_ends_at_the_one_stable_equilibrium(therapy):
    params, kind, u1, u2 = therapy
    beta, k = effective_rates(kind, params, u1, u2)
    r0_eff = beta * k * params.s / (params.d * params.m1 * params.m2)
    assume(abs(r0_eff - 1.0) >= 0.1)  # the approach slows down critically near 1

    stable = [eq for eq in equilibria(params, u1, u2, kind)
              if classify(eigen3(jacobian(params, u1, u2, kind, eq.point))).classification
              is StabilityClass.ASYMPTOTICALLY_STABLE]
    assert len(stable) == 1
    [eq] = stable
    assert (eq.kind is EquilibriumKind.UNINFECTED) == (r0_eff < 1.0)

    config = ScenarioConfig(kind, params, MESH, DEFAULT_INITIAL,
                            EfficacySchedule.window(0.0, DAYS, u1, u2), label="oracle")
    final = run(config).trajectory.states[-1]
    point = eq.point.as_array()
    assert np.linalg.norm(final - point) <= 1e-6 * np.linalg.norm(point)
