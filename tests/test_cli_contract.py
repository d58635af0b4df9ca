"""The CLI contract on generated commands: ``simulate``, ``analyze`` and ``linearize``
with every flag of ``cli._FLAGS`` drawn but ``--config`` (``--out`` is always the
example's own path), and values that include NaN, infinities, the smallest subnormal,
1e300, -0.0, negatives and coarse steps.  Each
command exits 0, 2 or 3; a failure prints one labelled line and writes no file; the
flags render back to the config they parse to; and each flag given as ``--flag value``
or as ``--flag=value`` gives the same exit code and stderr.  On exit 0, a ``simulate``
CSV holds the mesh at 9 digits and no entry below the population floor, its metrics
file holds the metric keys with the final row's values and a peak that is a row's, and
a ``linearize`` report holds its five keys.  Examples whose mesh holds more than 20,000
steps are rejected, so an example costs at most that many steps."""

import contextlib
import io
import math
import os
import tempfile
from pathlib import Path

import numpy as np
from hypothesis import assume, example, given, settings, strategies as st

from viradyn import ModelKind
from viradyn.cli import (
    _FLAGS,
    _METRIC_KEYS,
    _PARAM_NAMES,
    UsageError,
    main,
    metrics_path_for,
    parse_args,
    resolve_scenario,
)
from viradyn.integrator import NEGATIVE_FLOOR

MAX_STEPS = 20_000
REPORT_KEYS = ["perturbation", "max_discrepancy_T", "max_discrepancy_Tstar", "max_discrepancy_V",
               "max_discrepancy"]

SPECIAL = [math.nan, math.inf, -math.inf, 5e-324, 1e300, -1e300, -0.0, 0.0, -1.0, -150.0]


def values(*usual, low, high):
    """A fifth of the draws special, the rest usual or within [low, high]."""
    usual = st.one_of(st.sampled_from(usual), st.floats(low, high, allow_nan=False))
    return st.one_of(st.sampled_from(SPECIAL), *[usual] * 4)


times = values(5.0, 10.0, 50.0, 150.0, 400.0, 600.0, low=-1e3, high=1e3)
steps = values(0.05, 0.1, 0.25, 0.5, 1.0, 2.0, 5.0, 25.0, 100.0, 400.0, low=1e-3, high=1e3)
rates = values(10.0, 0.02, 2.4e-5, 100.0, 2.4, 0.24, 1000.0, low=1e-6, high=1e4)
efficacies = values(0.3, 0.5, 0.7, 1.0, 1.5, low=0.0, high=1.0)
states = values(1e-6, 50.0, 100.0, 240.0, 903.0, 1200.0, low=0.0, high=2e3)


def joined(sep, *parts):
    return st.tuples(*parts).map(lambda xs: sep.join(map(repr, xs)))


# the value text of each flag
FLAG_VALUES = {
    "--model": st.sampled_from([*(kind.value for kind in ModelKind), "chronic"]),
    "--param": st.tuples(st.sampled_from(_PARAM_NAMES), rates).map(lambda p: f"{p[0]}={p[1]!r}"),
    "--t0": times.map(repr),
    "--t1": times.map(repr),
    "--h": steps.map(repr),
    "--init": joined(",", states, states, states),
    "--treat": st.one_of(st.sampled_from(["150:400:0.7", "20:40:0.3:0.5", "0:10:1"]),
                         joined(":", times, times, efficacies),
                         joined(":", times, times, efficacies, efficacies)),
}


@st.composite
def commands(draw):
    flags = []  # one item per flag: ["--flag=value"] or ["--flag", "value"]
    for flag in draw(st.permutations(sorted(FLAG_VALUES))):
        repeatable = _FLAGS[flag][2]
        for _ in range(draw(st.integers(0, 2 if repeatable else 1))):
            value = draw(FLAG_VALUES[flag])
            flags.append([f"{flag}={value}"] if draw(st.booleans()) else [flag, value])
    flags.insert(draw(st.integers(0, len(flags))),
                 [draw(st.sampled_from(["simulate", "analyze", "linearize"]))])
    return [arg for args in flags for arg in args]


def test_every_flag_but_config_and_out_is_drawn():
    assert set(FLAG_VALUES) == set(_FLAGS) - {"--config", "--out"}


def mesh_steps(cfg) -> float:
    a = 0.0 if cfg.t0 is None else cfg.t0
    b = 400.0 if cfg.t1 is None else cfg.t1
    h = 0.1 if cfg.h is None else cfg.h
    with np.errstate(all="ignore"):
        return float(np.float64(b - a) / h)


def with_equals(argv):
    """``argv`` with each ``--flag value`` pair written ``--flag=value``."""
    joined, args = [], iter(argv)
    for arg in args:
        joined.append(f"{arg}={next(args)}" if arg in FLAG_VALUES else arg)
    return joined


def run_main(argv, out):
    """The exit code and stderr of ``main([*argv, --out=out])``."""
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        rc = main([*argv, f"--out={out}"])
    return rc, stderr.getvalue()


@settings(max_examples=200, deadline=None)
@given(argv=commands())
# m1*m2 underflows to 0, which once divided by zero in equilibria
@example(argv=["analyze", "--param", "m1=5e-324"])
@example(argv=["linearize", "--param=m1=5e-324"])
# -inf after a space was once read as a flag, so it gave another message than --t0=-inf
@example(argv=["analyze", "--t0", "-inf"])
# mesh times of 12 significant digits, so the CSV's t column shows its rounding
@example(argv=["simulate", "--model", "two-control", "--t0", "0.123456789012", "--t1",
               "50.123456789012", "--h", "0.5", "--treat", "10.123456789012:20.123456789012:0.5"])
@example(argv=["linearize", "--t1=50"])
def test_generated_commands_keep_the_cli_contract(argv):
    try:
        cfg = parse_args(argv)
    except UsageError:
        cfg = None
    if cfg is not None:
        n = mesh_steps(cfg)
        assume(not (math.isfinite(n) and n > MAX_STEPS))
        again = parse_args(cfg.to_argv())
        assert repr(again) == repr(cfg)  # field by field and bit for bit, NaN included
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "out.csv"
        rc, err = run_main(argv, out)
        assert rc in (0, 2, 3), (rc, err)
        if rc:
            assert cfg is not None or rc == 2
            assert err.count("\n") == 1 and err.endswith("\n"), err
            assert err.startswith("error: " if rc == 2 else "numerical failure: "), err
            assert os.listdir(tmp) == []
        elif cfg.command == "simulate":
            header, *lines = out.read_text().splitlines()
            mesh = resolve_scenario(cfg).mesh
            assert header == "t,T,Tstar,V" and len(lines) == mesh.n_steps + 1
            rows = [line.split(",") for line in lines]
            assert [row[0] for row in rows] == [f"{t:.9g}" for t in mesh.times().tolist()]
            assert np.array(rows, dtype=float)[:, 1:].min() >= NEGATIVE_FLOOR
            metrics = [line.split("=") for line in metrics_path_for(out).read_text().splitlines()]
            assert [key for key, _ in metrics] == list(_METRIC_KEYS)
            values = dict(metrics)
            assert [values[key] for key in _METRIC_KEYS[:3]] == rows[-1][1:]
            assert values["peak_viral_load"] in {row[3] for row in rows}
        elif cfg.command == "linearize":
            report = out.with_suffix(".report.txt").read_text().splitlines()
            assert [line.partition("=")[0] for line in report] == REPORT_KEYS
        assert run_main(with_equals(argv), out) == (rc, err)
