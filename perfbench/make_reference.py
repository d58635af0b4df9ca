"""Build perfbench/reference.json, the final states behind ``final_rel_err``.

Run from the repository root:

    PYTHONPATH=src python3 perfbench/make_reference.py

Each scenario of the ``reproduce`` suite is cut at its window edges into
segments of constant efficacy.  Each segment is integrated on its own,
restarting from the previous segment's end state, so no RK4 step straddles
a switch in the right-hand side.  The step is h/4.  The same is done at
h/8, and the largest relative difference between the two, times 16/15 (the
Richardson factor for a fourth-order method), is stored as the reference's
own error bound.

Besides the final states, the states at the checkpoints t = 20 and t = 100
are stored.  They lie before every window edge of the suite, so the
transient there depends on the initial state and the model but not on how
window edges are handled.

Only the public API is used: ``reference_scenarios``, ``rhs``,
``integrate`` and the value types.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np

from viradyn import (EfficacySchedule, MeshSpec, SystemState, integrate,
                     reference_scenarios, rhs)

OUT = Path(__file__).resolve().parent / "reference.json"
REFINE = 4
CHECK_REFINE = 8
CHECKPOINTS = (20.0, 100.0)


def segments(config):
    """(start, end, u1, u2) pieces of [a, b] with constant efficacies."""
    a, b = config.mesh.a, config.mesh.b
    edges = sorted({a, b} | {t for seg in config.schedule.segments
                             for t in (seg.t_start, seg.t_end) if a < t < b})
    return [(lo, hi, *config.schedule.efficacies_at(lo)) for lo, hi in zip(edges, edges[1:])]


def state_at(config, refine: int, t_end: float) -> np.ndarray:
    """The state at mesh time ``t_end``, integrated piecewise at h/refine."""
    w = config.initial.as_array()
    h = config.mesh.h / refine
    for lo, hi, u1, u2 in segments(config):
        if lo >= t_end:
            break
        hi = min(hi, t_end)
        # a window wider than the segment keeps the efficacies constant on
        # the closed interval, including the last stage at t = hi
        schedule = EfficacySchedule.window(lo - 1.0, hi + 1.0, u1, u2)

        def f(t, state, schedule=schedule):
            return rhs(config.kind, config.params, schedule, t, SystemState.from_array(state))

        w = integrate(f, MeshSpec(lo, hi, h), w).final_state.copy()
    return w


def main() -> int:
    final_states = {}
    checkpoints = {}
    bound = 0.0
    for config in reference_scenarios():
        assert all(edge > CHECKPOINTS[-1] for seg in config.schedule.segments
                   for edge in (seg.t_start, seg.t_end))
        checkpoints[config.label] = {}
        for t in (*CHECKPOINTS, config.mesh.b):
            ref = state_at(config, REFINE, t)
            check = state_at(config, CHECK_REFINE, t)
            err = float(np.max(np.abs(ref - check) / np.abs(check))) * 16.0 / 15.0
            bound = max(bound, err)
            print(f"{config.label} t={t:g}: {ref.tolist()} (error estimate {err:.2e})",
                  file=sys.stderr)
            if t == config.mesh.b:
                final_states[config.label] = [float(x) for x in ref]
            else:
                checkpoints[config.label][repr(t)] = [float(x) for x in ref]
    doc = {
        "description": "reproduce-suite final states (T, T_star, V), integrated piecewise "
                       "between window edges at h/4; error_bound is the largest relative "
                       "h/4 vs h/8 difference times 16/15; checkpoints holds the states at "
                       "t = 20 and t = 100, before every window edge",
        "h": 0.1,
        "refine": REFINE,
        "check_refine": CHECK_REFINE,
        "error_bound": bound,
        "final_states": final_states,
        "checkpoints": checkpoints,
    }
    OUT.write_text(json.dumps(doc, indent=1) + "\n")
    print(f"wrote {OUT} (error bound {bound:.2e})", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
