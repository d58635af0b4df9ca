"""Command-line front end: simulate, analyze, linearize, reproduce.

Trajectories are written as CSV with the fixed header ``t,T,Tstar,V``
(9 significant digits, LF line endings) next to a flat ``key=value``
metrics file; analysis reports are structured text.  Exit codes:
0 success, 2 usage or configuration error, 3 numerical failure.
"""

from __future__ import annotations

import contextlib
import itertools
import json
import os
import re
import sys
from dataclasses import dataclass, fields
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
    MetricSet,
    ScenarioConfig,
    ScenarioResult,
    _results,
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
_JSON_TYPES = {"object": dict, "list": list, "number": (int, float), "string": str}
# the metric columns: the final state's three components, then MetricSet's other fields
_METRIC_KEYS = ("final_T", "final_Tstar", "final_V", *_field_names(MetricSet)[1:])


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
        """Flags that parse back to an equal CliConfig, each as ``--flag=value``, which
        parses whatever the value starts with (an ``--out`` path may start with ``-``)."""
        argv = [self.command]
        for flag, (name, _, repeatable, metavar, _) in _FLAGS.items():
            value = getattr(self, name)
            for x in value if repeatable else () if value is None else (value,):
                if isinstance(x, tuple):  # joined by the separator its metavar shows
                    sep = next(c for c in metavar if c in "=,:")
                    x = sep.join(str(v) for v in x if v is not None)  # no absent u2
                argv.append(f"{flag}={x.value if isinstance(x, ModelKind) else x}")
        return argv


class _BadValue(Exception):
    """A flag or config value that does not parse; the caller names where it came from."""


def _float_arg(text: str) -> float:
    try:
        return float(text)
    except ValueError:
        raise _BadValue(f"invalid number {text!r}") from None


def _model_arg(text: str) -> ModelKind:
    choices = [kind.value for kind in ModelKind]
    if text not in choices:
        raise _BadValue(f"unknown model {text!r} (choose from {', '.join(choices)})")
    return ModelKind(text)


def _param_arg(text: str) -> tuple[str, float]:
    name, sep, value = text.partition("=")
    if not sep:
        raise _BadValue(f"expected key=value, got {text!r}")
    if name not in _PARAM_NAMES:
        raise _BadValue(f"unknown parameter {name!r} (choose from {', '.join(_PARAM_NAMES)})")
    return name, _float_arg(value)


def _init_arg(text: str) -> tuple[float, float, float]:
    parts = text.split(",")
    if len(parts) != 3:
        raise _BadValue(f"expected T,Tstar,V, got {text!r}")
    return tuple(_float_arg(p) for p in parts)  # type: ignore[return-value]


def _treat_arg(text: str) -> tuple[float, float, float, float | None]:
    parts = text.split(":")
    if len(parts) not in (3, 4):
        raise _BadValue(f"expected start:end:u1[:u2], got {text!r}")
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


# flag -> (CliConfig field, value parser, repeatable, metavar, help): parse_args,
# CliConfig.to_argv and the -h text all read this one table
_FLAGS = {
    "--model": ("model", _model_arg, False, "MODEL", "basic, two-control or combined"),
    "--config": ("config_path", Path, False, "CONFIG", "JSON scenario; flags override it"),
    "--param": ("param_overrides", _param_arg, True, "KEY=VAL", "override a rate constant"),
    "--t0": ("t0", _float_arg, False, "T0", "start time (day)"),
    "--t1": ("t1", _float_arg, False, "T1", "end time (day)"),
    "--h": ("h", _float_arg, False, "H", "mesh step (day)"),
    "--init": ("init", _init_arg, False, "T,TSTAR,V", "initial state"),
    "--treat": ("treat", _treat_arg, True, "START:END:U1[:U2]", "half-open treatment window"),
    "--out": ("out", Path, False, "OUT", "output path"),
}
# the flags reproduce takes; of --config, the last, it reads only the params
_REPRODUCE_FLAGS = ("--param", "--h", "--out", "--config")
# a "-" and more, but not a number such as -1e2 or -.5, nor text holding a space
_looks_like_flag = re.compile(r"-(?!\.?\d)[^ ]+\Z").match


def _help() -> str:
    flags = "".join(f"\n  {flag} {meta:<{25 - len(flag)}} {text}" + " (repeatable)" * repeatable
                    for flag, (_, _, repeatable, meta, text) in _FLAGS.items())
    commands = "".join(f"\n  {name:<10} {fn.__doc__}" for name, fn in _COMMANDS.items())
    return ("usage: viradyn [-h] [--FLAG VALUE ...] COMMAND [--FLAG VALUE ...]\n\nWithin-host "
            f"viral dynamics simulator and analyzer\n\nflags:{flags}\n\ncommands:{commands}")


def parse_args(argv: list[str]) -> CliConfig:
    """Parse flags, before or after the command, into a CliConfig; UsageError on bad input.

    A flag takes one value, as ``--flag=value`` or ``--flag value``, and may be
    shortened to a unique prefix; ``-h`` or ``--help`` prints the usage and exits.
    """
    command, values, extras = None, {}, []
    args = iter(argv)
    for arg in args:
        flag, eq, value = arg.partition("=")
        if flag not in _FLAGS:  # a prefix is tried only once the exact name misses
            if arg[:2] == "--" and arg != "--":
                names = [name for name in ("--help", *_FLAGS) if name.startswith(flag)]
                if len(names) > 1:
                    raise UsageError(f"ambiguous option: {arg} could match {', '.join(names)}")
                flag = names[0] if names else flag
            if flag in ("-h", "--help"):
                if eq:
                    raise UsageError(f"argument -h/--help: ignored explicit argument {value!r}")
                print(_help())
                raise SystemExit(0)
            if flag not in _FLAGS:  # the command, a surplus value or an unknown flag
                if command is None and not _looks_like_flag(arg):
                    if arg not in _COMMANDS:
                        raise UsageError(f"argument command: invalid choice: {arg!r} (choose "
                                         f"from {', '.join(map(repr, _COMMANDS))})")
                    command = arg
                else:
                    extras.append(arg)
                continue
        if not eq:
            value = next(args, None)
            if value is None or _looks_like_flag(value):
                raise UsageError(f"argument {flag}: expected one argument")
        name, parse, repeatable, _, _ = _FLAGS[flag]
        try:
            x = parse(value)
        except _BadValue as err:
            raise UsageError(f"argument {flag}: {err}") from None
        values[name] = (*values.get(name, ()), x) if repeatable else x
    if command is None:
        raise UsageError("the following arguments are required: command")
    if extras:
        raise UsageError(f"unrecognized arguments: {' '.join(extras)}")
    _schedule(values.get("treat", ()), ModelKind.BASIC, "--treat")  # kind-independent checks
    return CliConfig(command, **values)


# ---------------------------------------------------------------------------
# configuration resolution: defaults <- JSON file <- flags


def _checked(x, kind: str, where: str):
    """``x``, once it is a JSON ``kind``; true and false are not numbers."""
    if isinstance(x, bool) or not isinstance(x, _JSON_TYPES[kind]):
        raise _BadValue(f"{where} must be a JSON {kind}")
    return x


def _section(value, name: str, keys: tuple[str, ...]) -> dict:
    """``value`` itself, once it is a JSON object holding only ``keys``."""
    unknown = set(_checked(value, "object", name)) - set(keys)
    if unknown:
        raise _BadValue(f"unknown keys {sorted(unknown)} in {name}")
    return value


def _floats(value, name: str, keys: tuple[str, ...]) -> dict[str, float]:
    return {key: float(_checked(x, "number", f"{name}.{key}"))
            for key, x in _section(value, name, keys).items()}


def _load_config_file(path: Path) -> dict:
    """The file's layer: the values it sets, keyed as in the file."""
    try:
        raw = json.loads(path.read_text())
    except OSError as err:
        raise UsageError(f"--config: cannot read {path}: {err.strerror}") from None
    except json.JSONDecodeError as err:
        raise UsageError(f"--config: invalid JSON in {path}: {err}") from None
    try:
        raw = _section(raw, str(path), _CONFIG_KEYS)
        layer = {name: _floats(raw[name], name, keys)
                 for name, keys in _CONFIG_SECTIONS.items() if name in raw}
        if "initial" in layer:
            layer["initial"] = SystemState(**layer["initial"])
        if "kind" in raw:
            layer["kind"] = _model_arg(_checked(raw["kind"], "string", "kind"))
        if "label" in raw:
            layer["label"] = _checked(raw["label"], "string", "label")
        if "schedule" in raw:
            windows = [_floats(w, f"schedule[{i}]", _WINDOW_KEYS)
                       for i, w in enumerate(_checked(raw["schedule"], "list", "schedule"))]
            layer["schedule"] = [tuple(w[key] for key in _WINDOW_KEYS) for w in windows]
    except _BadValue as err:
        raise UsageError(f"--config: {err}") from None
    except KeyError as err:
        raise UsageError(f"--config: a schedule window has no {err}") from None
    except (TypeError, ValueError, OverflowError) as err:
        raise UsageError(f"--config: malformed value in {path}: {err}") from None
    return layer


def resolve_scenario(cli: CliConfig) -> ScenarioConfig:
    """Merge defaults, the optional JSON file, and inline flags."""
    file = {} if cli.config_path is None else _load_config_file(cli.config_path)
    if cli.command == "reproduce":  # the suite fixes all but the parameters and h
        fixed = [flag for flag, (name, *_) in _FLAGS.items()
                 if flag not in _REPRODUCE_FLAGS and getattr(cli, name) not in (None, ())]
        fixed += [f"--config: {name}" for name in file if name != "params"]
        if fixed:
            raise UsageError(f"{fixed[0]}: reproduce runs the built-in scenario suite and takes "
                             f"only {', '.join(_REPRODUCE_FLAGS[:-1])} and the params of --config")
    kind = cli.model or file.get("kind", ModelKind.BASIC)
    flag_mesh = {"a": cli.t0, "b": cli.t1, "h": cli.h}
    params = {**file.get("params", {}), **dict(cli.param_overrides)}
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


def _fmt_complex(z: complex) -> str:
    if z.imag == 0.0:
        return _fmt(z.real, 6)
    sign = "+" if z.imag >= 0.0 else "-"
    return f"{_fmt(z.real, 6)}{sign}{_fmt(abs(z.imag), 6)}i"


def _metric_values(result: ScenarioResult) -> list[str]:
    """The metrics in ``_METRIC_KEYS`` order, formatted; ``none`` where undefined."""
    m = result.metrics
    values = (*vars(m.final_state).values(), *(getattr(m, key) for key in _METRIC_KEYS[3:]))
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


def _write_csv(path: Path, times: np.ndarray, states: np.ndarray,
               prefix: tuple[Path, int] | None = None) -> Path:
    """The ``t,T,Tstar,V`` CSV: one row per time, 9 significant digits.

    Given ``prefix = (source, steps)``, the header and rows 0..steps are the
    lines of the CSV ``source``, copied as they are; ValueError when its row
    ``steps`` is not this trajectory's.
    """
    path = Path(path)
    start = 0
    with open(path, "w", newline="\n") as fh:
        if prefix is None:
            fh.write("t,T,Tstar,V\n")
        else:
            source, steps = prefix
            with open(source, newline="\n") as src:
                fh.writelines(itertools.islice(src, steps + 1))  # the header, rows 0..steps-1
                copied = src.readline()
            fresh = _CSV_ROW % (times[steps].item(), *states[steps].tolist())
            if copied != fresh:
                fh.close()
                path.unlink()
                raise ValueError(f"{path}: row {steps} copied from {source} reads "
                                 f"{copied.rstrip()!r}, not {fresh.rstrip()!r}")
            fh.write(copied)
            start = steps + 1
        for i in range(start, len(times), _CSV_BLOCK):
            block = np.column_stack((times[i:i + _CSV_BLOCK], states[i:i + _CSV_BLOCK]))
            fh.write((_CSV_ROW * len(block)) % tuple(block.ravel().tolist()))
    return path


def metrics_path_for(csv_path: Path) -> Path:
    return csv_path.with_suffix(".metrics.txt")


def emit_trajectory(result: ScenarioResult, path: Path, *,
                    prefix: tuple[Path, int] | None = None) -> Path:
    """Write the trajectory CSV plus its sibling key=value metrics file.
    ``prefix = (source, steps)`` copies rows 0..steps from the CSV ``source``."""
    path = _write_csv(path, result.trajectory.times, result.trajectory.states, prefix)
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
        lines += ["  [" + ", ".join(_fmt(x, 6) for x in row) + "]" for row in J.tolist()]
        lines.append("eigenvalues:")
        lines += [f"  {_fmt_complex(z)}" for z in decomposition.eigenvalues.tolist()]
        lines.append("eigenvectors:")
        lines += ["  [" + ", ".join(_fmt_complex(x) for x in vec) + "]"
                  for vec in decomposition.eigenvectors.T.tolist()]
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
    """integrate a scenario and write the trajectory CSV"""
    config = resolve_scenario(cli)
    result = run(config)
    out = emit_trajectory(result, cli.out or Path("trajectory.csv"))
    final = result.metrics.final_state
    _say(f"wrote {out} and {metrics_path_for(out)}")
    _say(f"final state: T={_fmt(final.T)} Tstar={_fmt(final.T_star)} V={_fmt(final.V)}")
    return 0


def _cmd_analyze(cli: CliConfig) -> int:
    """report equilibria, Jacobians, eigenvalues, stability"""
    config = resolve_scenario(cli)
    segments = config.schedule.segments
    efficacies = (segments[0].u1, segments[0].u2) if segments else (0.0, 0.0)
    report = render_analysis(config.params, config.kind, efficacies)
    out = _write_lines(cli.out or Path("analysis.txt"), report.splitlines())
    _say(f"{report}wrote {out}")
    return 0


def _cmd_linearize(cli: CliConfig) -> int:
    """compare the nonlinear flow with its linearization"""
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
    """run the built-in scenario suite into a directory"""
    config = resolve_scenario(cli)  # only the parameters and h matter here
    scenarios = reference_scenarios(config.params, h=config.mesh.h)  # checks h on each mesh
    out_dir = cli.out or Path("reproduction")
    out_dir.mkdir(parents=True, exist_ok=True)
    summary = ["label," + ",".join(_METRIC_KEYS)]
    paths = [out_dir / f"{config.label}.csv" for config in scenarios]
    # where a second process pays, a child marches the next scenario while this one
    # writes; each shared prefix is rendered once: later files copy its lines
    with contextlib.closing(_results(scenarios)) as results:
        for path, (result, copied) in zip(paths, results):
            emit_trajectory(result, path,
                            prefix=None if copied is None else (paths[copied[0]], copied[1]))
            summary.append(",".join([result.config.label, *_metric_values(result)]))
            _say(f"ran {result.config.label}")
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
