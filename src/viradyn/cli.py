"""Command-line front end: simulate, analyze, linearize, reproduce.

Trajectories are written as CSV with the fixed header ``t,T,Tstar,V``
(9 significant digits, LF line endings) next to a flat ``key=value``
metrics file; analysis reports are structured text.  Exit codes:
0 success, 2 usage or configuration error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from dataclasses import asdict, dataclass, fields
from pathlib import Path

import numpy as np

from .analysis import classify, eigen3, equilibria, jacobian
from .errors import NumericalError
from .integrator import DEFAULT_STEP, MeshSpec
from .model import (
    EfficacySchedule,
    ModelKind,
    ModelParams,
    SystemState,
    TreatmentWindow,
)
from .scenario import (
    DEFAULT_INITIAL,
    ScenarioConfig,
    ScenarioResult,
    compare_linearization,
    infected_equilibrium,
    reference_scenarios,
    run,
)

__all__ = ["CliConfig", "UsageError", "parse_args", "emit_trajectory",
           "emit_analysis", "main"]


def _field_names(cls) -> tuple[str, ...]:
    return tuple(f.name for f in fields(cls))


_PARAM_NAMES = _field_names(ModelParams)
_DEFAULT_MESH = {"a": 0.0, "b": 400.0, "h": DEFAULT_STEP}
# the JSON scenario file: the keys of each object section, the keys of each
# window in the "schedule" list, and the top-level keys; all are the fields
# of the value types they build
_CONFIG_SECTIONS = {"params": _PARAM_NAMES, "mesh": _field_names(MeshSpec),
                    "initial": _field_names(SystemState)}
_WINDOW_KEYS = _field_names(TreatmentWindow)
_CONFIG_KEYS = ("kind", *_CONFIG_SECTIONS, "schedule", "label")
_METRIC_KEYS = (
    "final_T", "final_Tstar", "final_V",
    "peak_viral_load", "peak_viral_load_day",
    "min_viral_load_during_treatment", "min_viral_load_during_treatment_day",
    "suppression_days", "rebound_day",
)


class UsageError(ValueError):
    """Bad flags or configuration; maps to exit code 2."""


@dataclass(frozen=True)
class CliConfig:
    command: str
    config_path: Path | None = None
    model: ModelKind | None = None
    param_overrides: tuple[tuple[str, float], ...] = ()
    t0: float | None = None
    t1: float | None = None
    h: float | None = None
    init: tuple[float, float, float] | None = None
    treat: tuple[tuple[float, float, float, float | None], ...] = ()
    out: Path | None = None

    def to_argv(self) -> list[str]:
        """Flag rendering that parses back to an equal CliConfig.

        Values are joined as ``--flag=value`` so that negative numbers
        (including scientific notation) survive argparse.
        """
        argv = [self.command]
        if self.model is not None:
            argv.append(f"--model={self.model.value}")
        if self.config_path is not None:
            argv.append(f"--config={self.config_path}")
        for name, value in self.param_overrides:
            argv.append(f"--param={name}={value!r}")
        for flag, value in (("--t0", self.t0), ("--t1", self.t1), ("--h", self.h)):
            if value is not None:
                argv.append(f"{flag}={value!r}")
        if self.init is not None:
            argv.append("--init=" + ",".join(repr(x) for x in self.init))
        for start, end, u1, u2 in self.treat:
            spec = f"{start!r}:{end!r}:{u1!r}"
            if u2 is not None:
                spec += f":{u2!r}"
            argv.append(f"--treat={spec}")
        if self.out is not None:
            argv.append(f"--out={self.out}")
        return argv


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # raise instead of exiting so parse_args is pure
        raise UsageError(message)


def _float_arg(text: str) -> float:
    try:
        return float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid number {text!r}") from None


def _model_arg(text: str) -> ModelKind:
    for kind in ModelKind:
        if text == kind.value:
            return kind
    choices = ", ".join(kind.value for kind in ModelKind)
    raise argparse.ArgumentTypeError(f"unknown model {text!r} (choose from {choices})")


def _param_arg(text: str) -> tuple[str, float]:
    name, sep, value = text.partition("=")
    if not sep:
        raise argparse.ArgumentTypeError(f"expected key=value, got {text!r}")
    if name not in _PARAM_NAMES:
        raise argparse.ArgumentTypeError(
            f"unknown parameter {name!r} (choose from {', '.join(_PARAM_NAMES)})"
        )
    return name, _float_arg(value)


def _init_arg(text: str) -> tuple[float, float, float]:
    parts = text.split(",")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError(f"expected T,Tstar,V, got {text!r}")
    return tuple(_float_arg(p) for p in parts)  # type: ignore[return-value]


def _treat_arg(text: str) -> tuple[float, float, float, float | None]:
    parts = text.split(":")
    if len(parts) not in (3, 4):
        raise argparse.ArgumentTypeError(f"expected start:end:u1[:u2], got {text!r}")
    start, end, u1, *rest = (_float_arg(p) for p in parts)
    return start, end, u1, rest[0] if rest else None


def _bind_window(window: tuple[float, float, float, float | None],
                 kind: ModelKind) -> TreatmentWindow:
    """A --treat or config window; a single efficacy is u2 for combined, else u1."""
    start, end, u1, u2 = window
    if u2 is None:
        u1, u2 = (0.0, u1) if kind is ModelKind.COMBINED else (u1, 0.0)
    elif kind is ModelKind.COMBINED and u1 != 0.0:
        raise ValueError(f"the combined model has a single efficacy, u2; set u1 to 0 "
                         f"(got {u1!r} in [{start!r}, {end!r}))")
    return TreatmentWindow(start, end, u1, u2)


def _schedule(windows, kind: ModelKind, where: str) -> EfficacySchedule:
    """The schedule of raw windows read from ``where``, which names its errors."""
    try:
        return EfficacySchedule(tuple(_bind_window(w, kind) for w in windows))
    except ValueError as err:
        raise UsageError(f"{where}: {err}") from None


# built on first use and kept for the process: argparse copies the ``append``
# defaults on every parse, so one parser serves every call
@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    common = _Parser(add_help=False)
    common.add_argument("--model", type=_model_arg, default=None,
                        help="model variant: basic, two-control, or combined")
    common.add_argument("--config", type=Path, default=None,
                        help="JSON scenario file; flags override its values")
    common.add_argument("--param", type=_param_arg, action="append", default=[],
                        metavar="KEY=VAL", help="override a rate constant (repeatable)")
    common.add_argument("--t0", type=_float_arg, default=None, help="start time (day)")
    common.add_argument("--t1", type=_float_arg, default=None, help="end time (day)")
    common.add_argument("--h", type=_float_arg, default=None, help="mesh step (day)")
    common.add_argument("--init", type=_init_arg, default=None, metavar="T,TSTAR,V",
                        help="initial state")
    common.add_argument("--treat", type=_treat_arg, action="append", default=[],
                        metavar="START:END:U1[:U2]",
                        help="treatment window, half-open (repeatable); a single "
                             "efficacy binds to u2 for the combined model")
    common.add_argument("--out", type=Path, default=None, help="output path")

    parser = _Parser(prog="viradyn",
                     description="Within-host viral dynamics simulator and analyzer")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)
    sub.add_parser("simulate", parents=[common],
                   help="integrate a scenario and write the trajectory CSV")
    sub.add_parser("analyze", parents=[common],
                   help="report equilibria, Jacobians, eigenvalues, stability")
    sub.add_parser("linearize", parents=[common],
                   help="compare the nonlinear flow with its linearization")
    sub.add_parser("reproduce", parents=[common],
                   help="run the built-in scenario suite into a directory")
    return parser


def parse_args(argv: list[str]) -> CliConfig:
    """Parse flags into a CliConfig, raising UsageError on bad input."""
    ns = _build_parser().parse_args(argv)
    treat = tuple(ns.treat)
    _schedule(treat, ModelKind.BASIC, "--treat")  # the kind is known once resolved
    return CliConfig(
        command=ns.command,
        config_path=ns.config,
        model=ns.model,
        param_overrides=tuple(ns.param),
        t0=ns.t0,
        t1=ns.t1,
        h=ns.h,
        init=ns.init,
        treat=treat,
        out=ns.out,
    )


# ---------------------------------------------------------------------------
# configuration resolution: defaults <- JSON file <- flags


def _section(value, name: str, keys: tuple[str, ...]) -> dict:
    """``value`` itself, once it is a JSON object holding only ``keys``."""
    if not isinstance(value, dict):
        raise UsageError(f"--config: {name} must be a JSON object")
    unknown = set(value) - set(keys)
    if unknown:
        raise UsageError(f"--config: unknown keys {sorted(unknown)} in {name}")
    return value


def _floats(value, name: str, keys: tuple[str, ...]) -> dict[str, float]:
    return {key: float(x) for key, x in _section(value, name, keys).items()}


def _load_config_file(path: Path) -> dict:
    """The file's layer: the values it sets, keyed as in the file."""
    try:
        raw = _section(json.loads(path.read_text()), str(path), _CONFIG_KEYS)
    except OSError as err:
        raise UsageError(f"--config: cannot read {path}: {err.strerror}") from None
    except json.JSONDecodeError as err:
        raise UsageError(f"--config: invalid JSON in {path}: {err}") from None
    try:
        layer = {name: _floats(raw[name], name, keys)
                 for name, keys in _CONFIG_SECTIONS.items() if name in raw}
        if "initial" in layer:
            layer["initial"] = SystemState(**layer["initial"])
        if "kind" in raw:
            layer["kind"] = _model_arg(str(raw["kind"]))
        if "label" in raw:
            layer["label"] = str(raw["label"])
        if "schedule" in raw:
            if not isinstance(raw["schedule"], list):
                raise UsageError("--config: schedule must be a JSON list")
            windows = [_floats(w, f"schedule[{i}]", _WINDOW_KEYS)
                       for i, w in enumerate(raw["schedule"])]
            layer["schedule"] = [tuple(w[key] for key in _WINDOW_KEYS) for w in windows]
    except UsageError:
        raise
    except argparse.ArgumentTypeError as err:
        raise UsageError(f"--config: {err}") from None
    except KeyError as err:
        raise UsageError(f"--config: a schedule window has no {err}") from None
    except (TypeError, ValueError) as err:
        raise UsageError(f"--config: malformed value in {path}: {err}") from None
    return layer


def resolve_scenario(cli: CliConfig) -> ScenarioConfig:
    """Merge defaults, the optional JSON file, and inline flags."""
    file = {} if cli.config_path is None else _load_config_file(cli.config_path)
    if cli.command == "reproduce":  # the suite fixes all but the parameters and h
        flags = {"--model": cli.model, "--t0": cli.t0, "--t1": cli.t1, "--init": cli.init,
                 "--treat": cli.treat or None}
        fixed = [flag for flag, value in flags.items() if value is not None]
        fixed += [f"--config: {name}" for name in file if name != "params"]
        if fixed:
            raise UsageError(f"{fixed[0]}: reproduce runs the built-in scenario suite and "
                             "takes only --param, --h, --out and the params of --config")
    kind = cli.model or file.get("kind", ModelKind.BASIC)
    flag_mesh = {"a": cli.t0, "b": cli.t1, "h": cli.h}
    params = {**asdict(ModelParams()), **file.get("params", {}), **dict(cli.param_overrides)}
    mesh = {**_DEFAULT_MESH, **file.get("mesh", {}),
            **{key: x for key, x in flag_mesh.items() if x is not None}}
    initial = (SystemState(*cli.init) if cli.init is not None
               else file.get("initial", DEFAULT_INITIAL))
    schedule = (_schedule(cli.treat, kind, "--treat") if cli.treat
                else _schedule(file.get("schedule", ()), kind, "--config: schedule"))
    return ScenarioConfig(kind, ModelParams(**params), MeshSpec(**mesh), initial, schedule,
                          label=file.get("label", "cli"))


# ---------------------------------------------------------------------------
# output writers


def _fmt(x: float, digits: int = 9) -> str:
    return f"{x:.{digits}g}"


def _fmt_complex(z: complex, digits: int = 6) -> str:
    if z.imag == 0.0:
        return _fmt(z.real, digits)
    sign = "+" if z.imag >= 0.0 else "-"
    return f"{_fmt(z.real, digits)}{sign}{_fmt(abs(z.imag), digits)}i"


def _metric_values(result: ScenarioResult) -> list[str]:
    """The metrics in ``_METRIC_KEYS`` order, formatted; ``none`` where undefined."""
    m = result.metrics
    values = (m.final_state.T, m.final_state.T_star, m.final_state.V,
              m.peak_viral_load, m.peak_viral_load_day,
              m.min_viral_load_during_treatment, m.min_viral_load_during_treatment_day,
              m.suppression_days, m.rebound_day)
    return ["none" if x is None else _fmt(x) for x in values]


def _write_lines(path: Path, lines) -> Path:
    """Write each line LF-terminated; every file but a trajectory CSV goes through here."""
    path = Path(path)
    with open(path, "w", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")
    return path


# for Python floats, %-formatting renders the same bytes as ``_fmt``
_CSV_ROW = "%.9g,%.9g,%.9g,%.9g\n"
_CSV_BLOCK = 512  # rows per write, so no file is ever held in memory whole


def _write_csv(path: Path, times: np.ndarray, states: np.ndarray) -> Path:
    """The ``t,T,Tstar,V`` CSV: one row per time, 9 significant digits."""
    path = Path(path)
    with open(path, "w", newline="\n") as fh:
        fh.write("t,T,Tstar,V\n")
        for i in range(0, len(times), _CSV_BLOCK):
            j = i + _CSV_BLOCK
            rows = np.column_stack((times[i:j], states[i:j])).tolist()
            fh.write("".join([_CSV_ROW % tuple(row) for row in rows]))
    return path


def metrics_path_for(csv_path: Path) -> Path:
    return csv_path.with_suffix(".metrics.txt")


def emit_trajectory(result: ScenarioResult, path: Path) -> Path:
    """Write the trajectory CSV plus its sibling key=value metrics file."""
    path = _write_csv(path, result.trajectory.times, result.trajectory.states)
    _write_lines(metrics_path_for(path),
                 [f"{key}={value}" for key, value in zip(_METRIC_KEYS, _metric_values(result))])
    return path


def render_analysis(params: ModelParams, kind: ModelKind,
                    efficacies: tuple[float, float]) -> str:
    """Structured text: equilibria, Jacobians, eigen-pairs, stability."""
    u1, u2 = efficacies
    lines = [
        "viradyn analysis report",
        f"model: {kind.value}",
        f"efficacies: u1={_fmt(u1, 6)} u2={_fmt(u2, 6)}",
        "params: " + " ".join(f"{n}={_fmt(getattr(params, n), 6)}" for n in _PARAM_NAMES),
    ]
    for eq in equilibria(params, u1, u2, kind):
        J = jacobian(params, u1, u2, kind, eq.point)
        decomposition = eigen3(J)
        report = classify(decomposition)
        lines += [
            "",
            f"equilibrium: {eq.kind.value}",
            f"point: T={_fmt(eq.point.T, 6)} Tstar={_fmt(eq.point.T_star, 6)} "
            f"V={_fmt(eq.point.V, 6)}",
            "jacobian:",
        ]
        lines += ["  [" + ", ".join(_fmt(x, 6) for x in row) + "]" for row in J]
        lines.append("eigenvalues:")
        lines += [f"  {_fmt_complex(z)}" for z in decomposition.eigenvalues]
        lines.append("eigenvectors:")
        lines += ["  [" + ", ".join(_fmt_complex(x) for x in decomposition.eigenvectors[:, i])
                  + "]" for i in range(3)]
        lines += [
            f"classification: {report.classification.value}",
            f"hyperbolic: {'true' if report.hyperbolic else 'false'}",
            f"spectral_abscissa: {_fmt(report.spectral_abscissa, 6)}",
        ]
    return "\n".join(lines) + "\n"


def emit_analysis(params: ModelParams, kind: ModelKind,
                  efficacies: tuple[float, float], path: Path) -> Path:
    return _write_lines(path, render_analysis(params, kind, efficacies).splitlines())


# ---------------------------------------------------------------------------
# command handlers


def _say(text: str) -> None:
    """Print ``text`` and a newline to stdout.  A reader that has gone away
    (``| head``) gets nothing more, and the command still writes its files."""
    try:
        print(text, flush=True)
    except BrokenPipeError:
        # send later lines, and the flush at exit, to the null device
        null = os.open(os.devnull, os.O_WRONLY)
        os.dup2(null, sys.stdout.fileno())
        os.close(null)


def _cmd_simulate(cli: CliConfig) -> int:
    config = resolve_scenario(cli)
    result = run(config)
    out = emit_trajectory(result, cli.out or Path("trajectory.csv"))
    final = result.metrics.final_state
    _say(f"wrote {out} and {metrics_path_for(out)}")
    _say(f"final state: T={_fmt(final.T)} Tstar={_fmt(final.T_star)} V={_fmt(final.V)}")
    return 0


def _cmd_analyze(cli: CliConfig) -> int:
    config = resolve_scenario(cli)
    segments = config.schedule.segments
    efficacies = (segments[0].u1, segments[0].u2) if segments else (0.0, 0.0)
    report = render_analysis(config.params, config.kind, efficacies)
    out = _write_lines(cli.out or Path("analysis.txt"), report.splitlines())
    _say(f"{report}wrote {out}")
    return 0


def _cmd_linearize(cli: CliConfig) -> int:
    config = resolve_scenario(cli)
    if cli.init is not None:
        perturbation = np.asarray(cli.init) - infected_equilibrium(config.params).as_array()
    else:
        perturbation = np.array([1.0, 0.1, 5.0])

    comparison = compare_linearization(config, perturbation)
    out = _write_csv(cli.out or Path("linearized.csv"), comparison.times, comparison.linearized)
    report_path = _write_lines(out.with_suffix(".report.txt"), [
        f"perturbation={','.join(_fmt(x) for x in comparison.perturbation)}",
        f"max_discrepancy_T={_fmt(comparison.component_max[0])}",
        f"max_discrepancy_Tstar={_fmt(comparison.component_max[1])}",
        f"max_discrepancy_V={_fmt(comparison.component_max[2])}",
        f"max_discrepancy={_fmt(comparison.max_discrepancy)}",
    ])
    _say(f"wrote {out} and {report_path}")
    _say(f"max discrepancy vs nonlinear flow: {_fmt(comparison.max_discrepancy)}")
    return 0


def _cmd_reproduce(cli: CliConfig) -> int:
    config = resolve_scenario(cli)  # only the parameters and h matter here
    scenarios = reference_scenarios(config.params, h=config.mesh.h)  # checks h on each mesh
    out_dir = cli.out or Path("reproduction")
    out_dir.mkdir(parents=True, exist_ok=True)
    summary = ["label," + ",".join(_METRIC_KEYS)]
    for scenario in scenarios:
        result = run(scenario)
        emit_trajectory(result, out_dir / f"{scenario.label}.csv")
        summary.append(",".join([scenario.label, *_metric_values(result)]))
        _say(f"ran {scenario.label}")
    summary_path = _write_lines(out_dir / "summary.csv", summary)
    _say(f"wrote {summary_path}")
    return 0


_COMMANDS = {
    "simulate": _cmd_simulate,
    "analyze": _cmd_analyze,
    "linearize": _cmd_linearize,
    "reproduce": _cmd_reproduce,
}


def main(argv: list[str] | None = None) -> int:
    try:
        cli = parse_args(sys.argv[1:] if argv is None else argv)
        return _COMMANDS[cli.command](cli)
    except (ValueError, OSError) as err:  # usage, validation and file errors alike
        print(f"error: {err}", file=sys.stderr)
        return 2
    except NumericalError as err:
        print(f"numerical failure: {err}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
