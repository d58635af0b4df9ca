"""Flag parsing, config resolution, file formats, and exit codes."""

import hashlib
import json
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st

import viradyn
from viradyn import cli
from viradyn import MeshSpec, ModelKind, ModelParams, ScenarioConfig, SystemState
from viradyn import EfficacySchedule, reference_scenarios, run
from viradyn.cli import (
    CliConfig,
    UsageError,
    emit_analysis,
    emit_trajectory,
    main,
    metrics_path_for,
    parse_args,
    render_analysis,
    resolve_scenario,
)

# --- parse_args ---------------------------------------------------------------

def test_bare_simulate_parses_to_empty_overrides():
    cfg = parse_args(["simulate"])
    assert cfg == CliConfig(command="simulate")


def test_combined_treatment_example():
    cfg = parse_args(["simulate", "--model", "combined",
                      "--treat", "150:400:0.7", "--t1", "600"])
    assert cfg.model is ModelKind.COMBINED
    assert cfg.treat == ((150.0, 400.0, 0.7, None),)
    assert cfg.t1 == 600.0


def test_param_override_example():
    cfg = parse_args(["analyze", "--param", "s=100"])
    assert cfg.param_overrides == (("s", 100.0),)


def test_unknown_flag_is_a_usage_error():
    with pytest.raises(UsageError, match="--frobnicate"):
        parse_args(["simulate", "--frobnicate"])


def test_malformed_number_names_the_flag():
    with pytest.raises(UsageError, match="--t0"):
        parse_args(["simulate", "--t0", "day-one"])


def test_unknown_parameter_name_rejected():
    with pytest.raises(UsageError, match="--param"):
        parse_args(["simulate", "--param", "gamma=3"])


def test_overlapping_treatment_windows_rejected():
    with pytest.raises(UsageError, match="overlapping"):
        parse_args(["simulate", "--treat", "0:200:0.1", "--treat", "150:400:0.2"])


def test_treatment_efficacy_range_checked():
    with pytest.raises(UsageError, match="efficacy"):
        parse_args(["simulate", "--treat", "0:200:1.5"])


def test_missing_command_rejected():
    with pytest.raises(UsageError):
        parse_args([])


def test_flags_may_come_before_the_command():
    assert parse_args(["--t1=5", "simulate"]) == parse_args(["simulate", "--t1=5"])
    assert parse_args(["--model=combined", "analyze", "--treat=1:2:0.5"]).command == "analyze"


@pytest.mark.parametrize("flag, value", [
    ("--t0", "-1e2"), ("--init", "-1,0,100"), ("--treat", "-5:10:0.5"),
])
def test_negative_value_after_a_space_parses_like_the_equals_form(flag, value):
    assert parse_args(["simulate", flag, value]) == parse_args(["simulate", f"{flag}={value}"])


def test_help_lists_every_command_with_its_help(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["-h"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    for name, text in [("simulate", "integrate a scenario and write the trajectory CSV"),
                       ("analyze", "report equilibria, Jacobians, eigenvalues, stability"),
                       ("linearize", "compare the nonlinear flow with its linearization"),
                       ("reproduce", "run the built-in scenario suite into a directory")]:
        assert re.search(rf"^ +{name} +{re.escape(text)}$", out, re.MULTILINE), name


@pytest.mark.parametrize("argv, err", [
    (["simulate", "--frobnicate"], "unrecognized arguments: --frobnicate"),
    (["simulate", "--frobnicate", "--zap", "5"], "unrecognized arguments: --frobnicate --zap 5"),
    (["--frobnicate"], "the following arguments are required: command"),
    (["simulate", "--t0"], "argument --t0: expected one argument"),
    (["simulate", "--t0", "--t1", "5"], "argument --t0: expected one argument"),
    (["simulate", "--t0", "day-one"], "argument --t0: invalid number 'day-one'"),
    (["simulate", "--t0", "-5x"], "argument --t0: invalid number '-5x'"),
    (["simulate", "--init", "1,2"], "argument --init: expected T,Tstar,V, got '1,2'"),
    (["simulate", "--init=1,x,3"], "argument --init: invalid number 'x'"),
    (["simulate", "--treat", "1:2"], "argument --treat: expected start:end:u1[:u2], got '1:2'"),
    (["simulate", "--tr=1:2:1.5"], "--treat: efficacy u1 must lie in [0, 1], got 1.5"),
    (["simulate", "--param", "s"], "argument --param: expected key=value, got 's'"),
    (["simulate", "--param", "gamma=3"],
     "argument --param: unknown parameter 'gamma' (choose from s, d, beta, k, m1, m2)"),
    (["simulate", "--model", "bogus"],
     "argument --model: unknown model 'bogus' (choose from basic, two-control, combined)"),
    (["frob"], "argument command: invalid choice: 'frob' "
               "(choose from 'simulate', 'analyze', 'linearize', 'reproduce')"),
    (["-5", "simulate"], "argument command: invalid choice: '-5' "
                         "(choose from 'simulate', 'analyze', 'linearize', 'reproduce')"),
    ([], "the following arguments are required: command"),
    (["simulate", "analyze"], "unrecognized arguments: analyze"),
    (["simulate", "--t0", "1", "2"], "unrecognized arguments: 2"),
    (["simulate", "--t", "5"], "ambiguous option: --t could match --t0, --t1, --treat"),
    (["simulate", "--t=5"], "ambiguous option: --t=5 could match --t0, --t1, --treat"),
    (["simulate", "--out", "-x.csv"], "argument --out: expected one argument"),
    (["simulate", "-x"], "unrecognized arguments: -x"),
    (["simulate", "-t0", "5"], "unrecognized arguments: -t0 5"),
    (["simulate", "--to", "5"], "unrecognized arguments: --to 5"),
    (["simulate", "--frob", "--t0", "x"], "argument --t0: invalid number 'x'"),
    (["--help=x", "simulate"], "argument -h/--help: ignored explicit argument 'x'"),
    (["simulate", "--t1", "5", "--", "x"], "unrecognized arguments: -- x"),
])
def test_usage_errors_exit_two_with_their_message(capsys, argv, err):
    assert main(argv) == 2
    assert capsys.readouterr().err == f"error: {err}\n"


def test_flags_may_be_shortened_to_a_unique_prefix(tmp_path, capsys):
    out = tmp_path / "c.csv"
    assert main(["--mod", "combined", "--t1", "5", "simulate", f"--ou={out}"]) == 0
    assert main(["simulate", "--model=combined", "--t1=5", f"--out={tmp_path / 'd.csv'}"]) == 0
    assert out.read_bytes() == (tmp_path / "d.csv").read_bytes()
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        main(["simulate", "--frob", "--he", "--t0", "x"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("usage: viradyn ")


@pytest.mark.parametrize("argv, err", [
    (["--", "simulate"], "unrecognized arguments: --"),
    (["simulate", "--"], "unrecognized arguments: --"),
    (["--", "simulate", "--t1", "5"], "unrecognized arguments: --"),
    (["frob", "--t", "5"], "argument command: invalid choice: 'frob' "
                           "(choose from 'simulate', 'analyze', 'linearize', 'reproduce')"),
    (["simulate", "--out", "--t"], "argument --out: expected one argument"),
])
def test_double_dash_is_no_flag_and_errors_are_reported_in_argv_order(capsys, argv, err):
    assert main(argv) == 2
    assert capsys.readouterr().err == f"error: {err}\n"


# --- round-trip property --------------------------------------------------------

clean_float = st.floats(min_value=-1e6, max_value=1e6,
                        allow_nan=False, allow_infinity=False)
efficacy = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)


@st.composite
def cli_configs(draw):
    bounds = draw(st.lists(st.floats(0.0, 1e3, allow_nan=False), min_size=4,
                           max_size=4, unique=True).map(sorted))
    n_windows = draw(st.integers(0, 2))
    treat = []
    for i in range(n_windows):
        u2 = draw(st.one_of(st.none(), efficacy))
        treat.append((bounds[2 * i], bounds[2 * i + 1], draw(efficacy), u2))
    return CliConfig(
        command=draw(st.sampled_from(["simulate", "analyze", "linearize", "reproduce"])),
        config_path=draw(st.sampled_from([None, Path("scenario.json")])),
        model=draw(st.sampled_from([None, *ModelKind])),
        param_overrides=tuple(
            (name, draw(clean_float))
            for name in draw(st.lists(st.sampled_from(["s", "d", "beta", "k", "m1", "m2"]),
                                      max_size=3))
        ),
        t0=draw(st.one_of(st.none(), clean_float)),
        t1=draw(st.one_of(st.none(), clean_float)),
        h=draw(st.one_of(st.none(), clean_float)),
        init=draw(st.one_of(st.none(), st.tuples(clean_float, clean_float, clean_float))),
        treat=tuple(treat),
        out=draw(st.sampled_from([None, Path("out.csv"), Path("nested/dir/x.csv")])),
    )


@given(cli_configs())
def test_flag_rendering_round_trips(cfg):
    assert parse_args(cfg.to_argv()) == cfg


# --- resolve_scenario -------------------------------------------------------------

def test_fully_defaulted_scenario():
    scenario = resolve_scenario(parse_args(["simulate"]))
    assert scenario.kind is ModelKind.BASIC
    assert scenario.params == ModelParams()
    assert (scenario.mesh.a, scenario.mesh.b, scenario.mesh.h) == (0.0, 400.0, 0.1)
    assert scenario.initial == SystemState(1200.0, 0.0, 100.0)
    assert scenario.schedule.segments == ()


def test_single_efficacy_binds_to_u2_for_combined():
    scenario = resolve_scenario(parse_args(
        ["simulate", "--model", "combined", "--treat", "150:400:0.7", "--t1", "600"]))
    [seg] = scenario.schedule.segments
    assert (seg.t_start, seg.t_end, seg.u1, seg.u2) == (150.0, 400.0, 0.0, 0.7)
    assert scenario.mesh.b == 600.0


def test_single_efficacy_binds_to_u1_for_two_control():
    scenario = resolve_scenario(parse_args(
        ["simulate", "--model", "two-control", "--treat", "150:400:0.5", "--t1", "600"]))
    [seg] = scenario.schedule.segments
    assert (seg.u1, seg.u2) == (0.5, 0.0)


def test_explicit_nonzero_u1_rejected_for_combined():
    cfg = parse_args(["simulate", "--model", "combined",
                      "--treat", "150:400:0.3:0.7", "--t1", "600"])
    with pytest.raises(UsageError, match="single efficacy"):
        resolve_scenario(cfg)


def test_param_override_reaches_the_model():
    scenario = resolve_scenario(parse_args(["analyze", "--param", "s=100"]))
    assert scenario.params.s == 100.0


def test_config_file_and_flag_precedence(tmp_path):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps({
        "kind": "two-control",
        "params": {"s": 5.0, "d": 0.04},
        "mesh": {"b": 600.0},
        "initial": {"T": 1000.0, "T_star": 1.0, "V": 50.0},
        "schedule": [{"t_start": 150.0, "t_end": 400.0, "u1": 0.5, "u2": 0.5}],
        "label": "from-file",
    }))
    scenario = resolve_scenario(parse_args(
        ["simulate", "--config", str(path), "--param", "s=7"]))
    assert scenario.kind is ModelKind.TWO_CONTROL
    assert scenario.params.s == 7.0      # flag beats file
    assert scenario.params.d == 0.04     # file beats default
    assert scenario.mesh.b == 600.0
    assert scenario.initial.T == 1000.0
    assert scenario.label == "from-file"
    assert len(scenario.schedule.segments) == 1


def test_unknown_config_key_rejected(tmp_path):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps({"stepsize": 0.1}))
    with pytest.raises(UsageError, match="stepsize"):
        resolve_scenario(parse_args(["simulate", "--config", str(path)]))


def test_config_file_that_cannot_be_read_exits_two(tmp_path, capsys):
    path = tmp_path / "missing.json"
    out = tmp_path / "out.csv"
    assert main(["simulate", f"--config={path}", f"--out={out}"]) == 2
    assert capsys.readouterr().err == (f"error: --config: cannot read {path}: "
                                       "No such file or directory\n")
    assert list(tmp_path.iterdir()) == []


def test_config_file_of_invalid_json_exits_two(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text('{"kind": ')
    assert main(["simulate", f"--config={path}", f"--out={tmp_path / 'out.csv'}"]) == 2
    assert capsys.readouterr().err.startswith(f"error: --config: invalid JSON in {path}: ")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["bad.json"]


def test_config_window_without_u2_exits_two(tmp_path, capsys):
    path = tmp_path / "c.json"
    path.write_text(json.dumps({"schedule": [{"t_start": 1.0, "t_end": 2.0, "u1": 0.5}]}))
    assert main(["simulate", f"--config={path}", f"--out={tmp_path / 'out.csv'}"]) == 2
    assert capsys.readouterr().err == "error: --config: a schedule window has no 'u2'\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["c.json"]


# --- emit_trajectory ----------------------------------------------------------------

def small_result(t_end=0.2):
    cfg = ScenarioConfig(ModelKind.BASIC, ModelParams(), MeshSpec(0.0, t_end, 0.1),
                         SystemState(1200.0, 0.0, 100.0), EfficacySchedule(),
                         label="small")
    return run(cfg)


def test_three_point_trajectory_writes_four_lines(tmp_path):
    out = tmp_path / "traj.csv"
    emit_trajectory(small_result(), out)
    lines = out.read_text().splitlines()
    assert len(lines) == 4
    assert lines[0] == "t,T,Tstar,V"


def test_initial_row_renders_integers_without_noise(tmp_path):
    out = tmp_path / "traj.csv"
    emit_trajectory(small_result(), out)
    assert out.read_text().splitlines()[1] == "0,1200,0,100"


def test_csv_uses_lf_line_endings(tmp_path):
    out = tmp_path / "traj.csv"
    emit_trajectory(small_result(), out)
    raw = out.read_bytes()
    assert b"\r" not in raw
    assert raw.endswith(b"\n")


def test_metrics_file_schema(tmp_path):
    out = tmp_path / "traj.csv"
    emit_trajectory(small_result(), out)
    text = metrics_path_for(out).read_text()
    assert "suppression_days=" in text
    assert "rebound_day=none" in text
    assert "min_viral_load_during_treatment=none" in text


def test_csv_round_trips_at_printed_precision(tmp_path):
    result = small_result(t_end=5.0)
    out = tmp_path / "traj.csv"
    emit_trajectory(result, out)
    rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
    parsed = np.array([[float(x) for x in row] for row in rows])
    reference = np.column_stack([result.trajectory.times, result.trajectory.states])
    # 9 significant digits keep the relative quantization under 5e-9
    scale = np.maximum(np.abs(reference), 1e-300)
    assert np.max(np.abs(parsed - reference) / scale) < 5e-9


# --- emit_analysis -------------------------------------------------------------------

def _infected_point_from(text):
    block = text.split("equilibrium: infected")[1]
    match = re.search(r"point: T=([^ ]+) Tstar=([^ ]+) V=([^\n]+)", block)
    return np.array([float(g) for g in match.groups()])


def test_analysis_report_contains_reported_equilibrium(tmp_path):
    out = tmp_path / "analysis.txt"
    emit_analysis(ModelParams(), ModelKind.BASIC, (0.0, 0.0), out)
    text = out.read_text()
    point = _infected_point_from(text)
    assert np.all(np.abs(point - [240.0, 21.6667, 902.778]) < 1e-3)
    for fragment in ("240", "21.6667", "902.778", "asymptotically stable",
                     "hyperbolic: true"):
        assert fragment in text


def test_full_efficacy_report_lists_only_uninfected():
    text = render_analysis(ModelParams(), ModelKind.COMBINED, (0.0, 1.0))
    assert text.count("equilibrium:") == 1
    assert "equilibrium: uninfected" in text


def test_vanishing_infection_report_classifies_from_diagonal_rates():
    text = render_analysis(ModelParams(beta=1e-12), ModelKind.BASIC, (0.0, 0.0))
    assert text.count("equilibrium:") == 1  # infection cannot persist
    assert "classification: asymptotically stable" in text
    assert "-0.02" in text and "-0.24" in text and "-2.4" in text


# --- main / exit codes ------------------------------------------------------------------

def test_simulate_writes_outputs_and_exits_zero(tmp_path, capsys):
    out = tmp_path / "t.csv"
    assert main(["simulate", "--t1", "1", "--out", str(out)]) == 0
    assert out.exists() and metrics_path_for(out).exists()
    assert "final state" in capsys.readouterr().out


def test_analyze_prints_report_and_exits_zero(tmp_path, capsys):
    out = tmp_path / "a.txt"
    assert main(["analyze", "--out", str(out)]) == 0
    assert "equilibrium: infected" in capsys.readouterr().out
    assert out.exists()


def test_linearize_writes_csv_and_report(tmp_path, capsys):
    out = tmp_path / "lin.csv"
    assert main(["linearize", "--t1", "50", "--out", str(out)]) == 0
    assert out.exists()
    report = out.with_suffix(".report.txt").read_text()
    assert "max_discrepancy=" in report


def test_linearize_init_is_reported_as_its_offset_from_the_equilibrium(tmp_path, capsys):
    out = tmp_path / "lin.csv"
    assert main(["linearize", "--init", "241,21.6667,902.778", "--t1", "5",
                 "--out", str(out)]) == 0
    report = out.with_suffix(".report.txt").read_text().splitlines()
    assert report[0] == "perturbation=1,3.33333333e-05,0.000222222222"


def test_usage_errors_exit_two(capsys):
    assert main(["simulate", "--frobnicate"]) == 2
    assert main(["simulate", "--t0", "abc"]) == 2
    assert main(["simulate", "--h", "0.3", "--t1", "1"]) == 2
    assert main(["simulate", "--param", "s=-1"]) == 2
    err = capsys.readouterr().err
    assert "error" in err


def test_numerical_failure_exits_three(tmp_path, capsys):
    out = tmp_path / "t.csv"
    code = main(["simulate", "--init", "1e300,0,1e300", "--t1", "1", "--out", str(out)])
    assert code == 3
    assert "numerical failure" in capsys.readouterr().err


def test_overflowing_stage_input_names_the_step_stage_and_scenario(tmp_path, capsys):
    out = tmp_path / "t.csv"
    assert main(["simulate", "--init=1.7e308,0,0", "--param=s=1.7e308", "--param=d=1e-300",
                 "--h=1", "--t1=2", f"--out={out}"]) == 3
    assert capsys.readouterr().err == ("numerical failure: integration blew up "
                                       "(t=0, stage k2, step 0, scenario 'cli')\n")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv, component, t, value", [
    (["--h=1"], "T_star", 1, "-0.112585"),
    (["--h=400"], "T_star", 400, "-3.68308e+18"),
    (["--h=400", "--param=s=0.1"], "T", 400, "-1.9806e+18"),
], ids=["h1", "h400", "h400-s0.1"])
def test_a_step_that_takes_a_population_below_the_floor_exits_three(
        tmp_path, capsys, argv, component, t, value):
    out = tmp_path / "t.csv"
    assert main(["simulate", *argv, f"--out={out}"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"numerical failure: population {component} fell to {value} "
                            f"(t={t}, step 1, scenario 'cli'): the step is too coarse "
                            "for the rates\n")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("command", ["simulate", "analyze"])
@pytest.mark.parametrize("t0, t1", [("1e6", "1000400"), ("-1e6", "-999600")])
def test_mesh_whose_float_times_are_not_uniform_exits_two(tmp_path, capsys, command, t0, t1):
    out = tmp_path / "out.csv"
    assert main([command, f"--t0={t0}", f"--t1={t1}", f"--out={out}"]) == 2
    mesh = f"mesh [{float(t0)}, {float(t1)}] with step h=0.1 must be uniformly spaced"
    assert mesh in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv, spacing", [
    (["--t1", "1e9", "--h", "0.001"], "[0.0, 1000000000.0] with step h=0.001 must be uniformly "
                                      "spaced; one step is 0.0009999999983847374"),
    (["--t0", "1e6", "--t1", "1e13", "--h", "0.1"],
     "[1000000.0, 10000000000000.0] with step h=0.1 must be uniformly spaced; "
     "one step is 0.10000000009313226"),
    (["--t0", "1e15", "--t1", "1.0000000000001e15", "--h", "0.1"],
     "[1000000000000000.0, 1000000000000100.0] with step h=0.1 must be uniformly spaced; "
     "one step is 0.0"),
    (["--t1", "1e18", "--h", "1"], "[0.0, 1e+18] with step h=1.0 must be uniformly spaced; "
                                   "one step is 0.0"),
])
def test_mesh_far_past_exact_float_times_exits_two_naming_a_step(tmp_path, capsys, argv, spacing):
    assert main(["analyze", *argv, f"--out={tmp_path / 'a.txt'}"]) == 2
    assert capsys.readouterr().err == f"error: the times of mesh {spacing}\n"
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv", [
    ["simulate", "--h", "1e-320"],
    ["analyze", "--t1", "1e300", "--h", "1e-300"],
])
def test_step_count_that_overflows_a_float_exits_two(tmp_path, capsys, argv):
    assert main([*argv, f"--out={tmp_path / 'out'}"]) == 2
    assert "does not divide" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("params, point, component", [
    (["k=1e308", "beta=1e308"], "infected", "V"),
    (["d=1e-310"], "uninfected", "T"),
])
def test_parameters_that_overflow_an_equilibrium_exit_two_naming_it(tmp_path, capsys, params,
                                                                     point, component):
    argv = ["analyze", *(f"--param={p}" for p in params), f"--out={tmp_path / 'a.txt'}"]
    assert main(argv) == 2
    assert capsys.readouterr().err == (f"error: the parameters overflow the {point} equilibrium: "
                                       f"state component {component} must be finite\n")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("command", ["analyze", "linearize"])
def test_rates_whose_product_underflows_exit_two_naming_the_point(tmp_path, capsys, command):
    # m1*m2 rounds to 0, so the infected V, k*s/(m1*m2) - d/beta, is infinite
    assert main([command, "--param=m1=5e-324", f"--out={tmp_path / 'out'}"]) == 2
    captured = capsys.readouterr()
    assert captured.err == ("error: the parameters overflow the infected equilibrium: "
                            "state component V must be finite\n")
    assert captured.out == ""
    assert list(tmp_path.iterdir()) == []


def test_trajectory_too_large_to_allocate_exits_two_and_writes_nothing(tmp_path):
    resource = pytest.importorskip("resource")

    def limit_address_space():  # about 2 GiB, in the child only
        resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))

    path = [str(Path(viradyn.__file__).parents[1]), os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path)),
           "OPENBLAS_NUM_THREADS": "1"}
    proc = subprocess.run(
        [sys.executable, "-c", "import sys; from viradyn.cli import main; sys.exit(main())",
         "simulate", "--t1", "1e12", "--h", "1", f"--out={tmp_path / 'big.csv'}"],
        capture_output=True, text=True, env=env, preexec_fn=limit_address_space, timeout=120)
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.startswith("error: a trajectory of 1000000000000 steps on the mesh ")
    assert "needs 24000000000024 bytes" in proc.stderr
    assert list(tmp_path.iterdir()) == []


def test_mesh_far_from_zero_with_uniform_float_times_still_runs(tmp_path):
    assert main(["simulate", "--t0=1e5", "--t1=100400", f"--out={tmp_path / 'o.csv'}"]) == 0


def test_reproduce_writes_summary_and_per_scenario_files(tmp_path):
    out_dir = tmp_path / "repro"
    # a coarse mesh keeps this test quick; the full-resolution suite is
    # exercised by the acceptance tests
    assert main(["reproduce", "--h", "0.5", "--out", str(out_dir)]) == 0
    summary = (out_dir / "summary.csv").read_text().splitlines()
    assert summary[0].startswith("label,final_T,")
    assert len(summary) == 15  # 14 scenarios + header
    assert (out_dir / "basic-T0-1200.csv").exists()
    assert (out_dir / "combined-u0.7.metrics.txt").exists()


# --- JSON schema: every section is an object with known keys only ---------------

def _run_config(tmp_path, doc):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(doc))
    return main(["simulate", f"--config={path}", f"--out={tmp_path / 't.csv'}"])


@pytest.mark.parametrize("section, doc", [
    ("params", {"params": [1, 2]}),
    ("mesh", {"mesh": "abc"}),
    ("mesh", {"mesh": 5}),
    ("initial", {"initial": None}),
    ("schedule", {"schedule": {"t_start": 150.0}}),
    ("schedule[0]", {"schedule": [7]}),
])
def test_config_section_of_the_wrong_json_type_exits_two(tmp_path, capsys, section, doc):
    assert _run_config(tmp_path, doc) == 2
    assert f"--config: {section} must be a JSON " in capsys.readouterr().err
    assert list(tmp_path.glob("*.csv")) == []


@pytest.mark.parametrize("doc, key", [
    ({"mesh": {"a": 0, "t1": 600, "h": 0.1}}, "t1"),
    ({"initial": {"T": 1000.0, "Tstar": 1.0, "V": 50.0}}, "Tstar"),
    ({"schedule": [{"t_start": 150.0, "t_end": 400.0, "u1": 0.5, "u2": 0.5, "u3": 0.1}]},
     "u3"),
], ids=["mesh", "initial", "schedule"])
def test_unknown_key_inside_a_config_section_exits_two(tmp_path, capsys, doc, key):
    assert _run_config(tmp_path, doc) == 2
    err = capsys.readouterr().err
    assert "--config" in err and repr(key) in err
    assert list(tmp_path.glob("*.csv")) == []


@pytest.mark.parametrize("doc, where", [
    ({"params": {"s": True}}, "params.s"),
    ({"mesh": {"b": "600"}}, "mesh.b"),
    ({"initial": {"T": "1200", "T_star": False, "V": "100"}}, "initial.T"),
    ({"schedule": [{"t_start": 150.0, "t_end": 400.0, "u1": True, "u2": 0.5}]},
     "schedule[0].u1"),
    ({"kind": 5}, "kind"),
    ({"label": None}, "label"),
], ids=["bool-param", "string-mesh", "string-initial", "bool-window", "number-kind",
        "null-label"])
def test_config_value_of_the_wrong_json_type_exits_two(tmp_path, capsys, doc, where):
    assert _run_config(tmp_path, doc) == 2
    assert f"error: --config: {where} must be a JSON " in capsys.readouterr().err
    assert list(tmp_path.glob("*.csv")) == []


def test_config_integers_are_numbers_unless_too_large_for_a_float(tmp_path, capsys):
    # near equilibrium, h = 1 keeps every population above 21; from DEFAULT_INITIAL it is
    # too coarse for the rates, and T* falls below the population floor at t = 1
    assert _run_config(tmp_path, {"mesh": {"a": 0, "b": 20, "h": 1}, "label": "ints",
                                  "initial": {"T": 240, "T_star": 22, "V": 903}}) == 0
    assert _run_config(tmp_path, {"params": {"s": 10 ** 400}}) == 2
    assert "error: --config: malformed value" in capsys.readouterr().err


# --- the reader of stdout, and the frozen efficacies of analyze ------------------

def test_closed_stdout_still_writes_every_file_and_exits_zero(tmp_path):
    out = tmp_path / "r"
    read_end, write_end = os.pipe()
    os.close(read_end)  # the reader is gone before the command prints anything
    path = [str(Path(viradyn.__file__).parents[1]), os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}
    try:
        proc = subprocess.run(
            [sys.executable, "-c", "import sys; from viradyn.cli import main; sys.exit(main())",
             "reproduce", f"--out={out}"],
            stdout=write_end, stderr=subprocess.PIPE, env=env, timeout=120)
    finally:
        os.close(write_end)
    assert proc.returncode == 0
    assert proc.stderr == b""
    assert len(list(out.iterdir())) == 29  # 14 CSVs, 14 metrics files, summary.csv


def test_analyze_freezes_the_efficacies_of_the_earliest_window(tmp_path, capsys):
    out = tmp_path / "a.txt"
    assert main(["analyze", "--model", "two-control", "--treat", "200:300:0.5",
                 "--treat", "100:150:0.2", f"--out={out}"]) == 0
    assert "efficacies: u1=0.2 u2=0\n" in capsys.readouterr().out


def test_unwritable_out_still_exits_two(tmp_path, capsys):
    assert main(["analyze", f"--out={tmp_path / 'missing' / 'a.txt'}"]) == 2
    assert "error:" in capsys.readouterr().err


# --- one parser per process ------------------------------------------------------

def test_repeated_flags_do_not_leak_into_the_next_parse():
    first = parse_args(["simulate", "--treat=1:2:0.5", "--treat=3:4:0.5", "--param=s=5"])
    assert len(first.treat) == 2 and first.param_overrides == (("s", 5.0),)
    again = parse_args(["simulate"])
    assert again.treat == () and again.param_overrides == ()


def test_analyze_prints_exactly_the_report_it_wrote(tmp_path, capsys):
    out = tmp_path / "a.txt"
    assert main(["analyze", "--model", "two-control", "--treat", "10:20:0.3:0.4",
                 f"--out={out}"]) == 0
    assert capsys.readouterr().out == f"{out.read_text()}wrote {out}\n"


# --- reproduce runs the built-in suite only --------------------------------------

@pytest.mark.parametrize("flag", ["--model=combined", "--t0=0", "--t1=5",
                                  "--init=1,2,3", "--treat=1:2:0.5"])
def test_reproduce_rejects_the_flags_it_would_ignore(tmp_path, capsys, flag):
    out = tmp_path / "r"
    assert main(["reproduce", flag, f"--out={out}"]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {flag.split('=')[0]}: reproduce ")
    assert not out.exists()


# --- the CSV byte contract ----------------------------------------------------------

_EDGE_FLOATS = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e-300, -1e-300,
                1e300, -1e300, 1.7976931348623157e308, 0.1, 1.0 / 3.0, 123456789.5]
_BLOCK = cli._CSV_BLOCK


@given(n_rows=st.sampled_from([1, _BLOCK - 1, _BLOCK, _BLOCK + 1, 2 * _BLOCK + 1]),
       pool=st.lists(st.one_of(st.sampled_from(_EDGE_FLOATS),
                               st.floats(allow_nan=False, allow_infinity=False)),
                     min_size=1, max_size=40))
def test_csv_bytes_equal_the_per_value_rendering(n_rows, pool):
    values = np.resize(np.array(pool, dtype=float), (n_rows, 4))
    times, states = values[:, 0], values[:, 1:]
    expected = "t,T,Tstar,V\n" + "".join(
        ",".join(f"{x:.9g}" for x in (t, *row)) + "\n" for t, row in zip(times, states))
    with tempfile.TemporaryDirectory() as tmp:
        path = cli._write_csv(Path(tmp) / "t.csv", times, states)
        assert path.read_bytes() == expected.encode()


@given(n_rows=st.sampled_from([1, _BLOCK - 1, _BLOCK, _BLOCK + 1, 2 * _BLOCK + 1]),
       shared=st.sampled_from([0, 1, _BLOCK - 1, _BLOCK, None]),  # None: n_rows - 1
       pool=st.lists(st.one_of(st.sampled_from(_EDGE_FLOATS),
                               st.floats(allow_nan=False, allow_infinity=False)),
                     min_size=1, max_size=40))
def test_csv_with_a_copied_prefix_equals_the_csv_written_from_scratch(n_rows, shared, pool):
    shared = n_rows - 1 if shared is None else min(shared, n_rows - 1)
    source = np.resize(np.array(pool, dtype=float), (n_rows, 4))
    copier = source.copy()
    # every later value prints apart from the source's
    copier[shared + 1:] = np.where(np.abs(copier[shared + 1:] - 0.5) < 0.25, 2.0, 0.5)
    with tempfile.TemporaryDirectory() as tmp:
        src = cli._write_csv(Path(tmp) / "source.csv", source[:, 0], source[:, 1:])
        copied = cli._write_csv(Path(tmp) / "copied.csv", copier[:, 0], copier[:, 1:],
                                prefix=(src, shared))
        fresh = cli._write_csv(Path(tmp) / "fresh.csv", copier[:, 0], copier[:, 1:])
        assert copied.read_bytes() == fresh.read_bytes()


def test_a_copied_row_altered_on_disk_exits_two_and_leaves_no_copy(tmp_path, capsys,
                                                                   monkeypatch):
    emit, copies = cli.emit_trajectory, []

    def alter_the_last_copied_row_then_emit(result, path, *, prefix=None):
        if prefix is not None and not copies:
            source, shared = prefix
            lines = source.read_text().splitlines(keepends=True)
            lines[shared + 1] = "9" + lines[shared + 1]  # the header is line 0
            source.write_text("".join(lines))
            copies.append((source, path))
        return emit(result, path, prefix=prefix)

    monkeypatch.setattr(cli, "emit_trajectory", alter_the_last_copied_row_then_emit)
    assert main(["reproduce", "--h=0.5", f"--out={tmp_path}"]) == 2
    [(source, path)] = copies
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: row ") and f" copied from {source} " in err
    assert not path.exists() and not metrics_path_for(path).exists()


def test_reproduce_files_equal_standalone_writes_of_each_scenario(tmp_path):
    # at the default h the shared prefixes (1,500, 4,000 and 6,000 steps)
    # end inside 512-row blocks; --h 0.5 is pinned by digest below
    assert main(["reproduce", f"--out={tmp_path / 'r'}"]) == 0
    (tmp_path / "alone").mkdir()
    names = {"summary.csv"}
    for config in reference_scenarios():
        path = emit_trajectory(run(config), tmp_path / "alone" / f"{config.label}.csv")
        for alone in (path, metrics_path_for(path)):
            assert alone.read_bytes() == (tmp_path / "r" / alone.name).read_bytes(), alone.name
            names.add(alone.name)
    assert {path.name for path in (tmp_path / "r").iterdir()} == names


def test_reproduce_files_match_their_recorded_hashes(tmp_path):
    # recorded from the per-value writer; the kernel is IEEE + - * / only
    out = tmp_path / "r"
    assert main(["reproduce", "--h", "0.5", f"--out={out}"]) == 0
    digests = {path.name: hashlib.sha256(path.read_bytes()).hexdigest()
               for path in out.iterdir()}
    assert digests == {
        "basic-T0-1000.csv":
            "5ab517d494f10bbcea0e4cb1f5ca012cd554c20f42a2ad146d69f49c799af600",
        "basic-T0-1000.metrics.txt":
            "e8467ee63e456230d91a22e93f80906b5770d5ca597eea669ea929137d33b01a",
        "basic-T0-1200.csv":
            "f7b3fbc8e62a94c658305718e5f1e014dcf93acbff0e839bcbe8f2555c956927",
        "basic-T0-1200.metrics.txt":
            "8c7d7fdb6fadb7dbef83df24e0ec1a35e8d534637ab44e43e148a361fb4728af",
        "basic-T0-500.csv": "edbd775d79477180a9f59ee6cfa3d3e2ac1912f4671b479b943ac311b326de49",
        "basic-T0-500.metrics.txt":
            "7aab737c1f64e6acaaa41f282b8a1f0e0239f951de0f6fee3f8fcb13654f823f",
        "basic-T0-800.csv": "bf399b2f9260ee5f5ef36092df1dae87ab3a0f19baba678695fe9205b2f60c8e",
        "basic-T0-800.metrics.txt":
            "5b884bb5a67f303cfe782a940e4b5b522c4bccf258e2a66f43da487956de16e9",
        "combined-u0.4.csv":
            "316a010b185c1b62a484a7e313940c340d83d54c5605762d85c90dcbaeb28a3c",
        "combined-u0.4.metrics.txt":
            "7648ee8df23d9d493b5df91e63b56aec2e4bc6f703fffc9e94c173e69b5df045",
        "combined-u0.6.csv":
            "fabb5584a458e5eec45879d51f46050bf0b231e59d80f5d5b425ebba00958992",
        "combined-u0.6.metrics.txt":
            "17803904307867dabf461d2a2b237203995d506623cbcb2768f8bc2d511ceb60",
        "combined-u0.7-continuous.csv":
            "e458994f19f31107191d1e680989f4db16a2bc761e53ec64b896a09fa0e1ce81",
        "combined-u0.7-continuous.metrics.txt":
            "13a5534eb38e8673c499dda7c1c9309889f67337ece5ea7f2b6a4d34a44815c7",
        "combined-u0.7.csv":
            "e67695b21f479fe546520880537d6096c7d2840bda237590d93923dfbb028216",
        "combined-u0.7.metrics.txt":
            "fc414aa0951221c16aa25945df00631f7b9557c05cb41ec209b86de660bf8331",
        "combined-u0.csv": "1f1ef8987f4177cdf358d1a4112d1770719c3631d6a787b17a3a0eab6f3948b2",
        "combined-u0.metrics.txt":
            "83b7a7bfe4107e2b800e650b44dbbd4670a26cde8ec7fd6f434502749d3796f1",
        "summary.csv": "681a796eb9badb4508eabc597de8adef11b19ebfb62517229e12409bb0652f3f",
        "two-control-u0.2.csv":
            "59ef52cd2ba11743365bfc5b57e4e23f608e22d1f44f79be5288ebee3e96b501",
        "two-control-u0.2.metrics.txt":
            "0611678e1584e51c7665fcd5ee7cb1ca52c62d77d6a866f66f4b460febf57084",
        "two-control-u0.3.csv":
            "807dd0b713795c19d88502837de63798fd31d0a18e7d8cc99b4fe7670f85281a",
        "two-control-u0.3.metrics.txt":
            "baceff83f2017a44e669da72ab33b4470b32a0a58764cedae70eafffc65970e8",
        "two-control-u0.5-continuous.csv":
            "e9b108e3a62deda07492a4c7131c94441ec879a90b2dcf59b5b86ab472427406",
        "two-control-u0.5-continuous.metrics.txt":
            "42f4450270fe77cee1e3e37c513ef62b923e6a15769b2786d856a56581d9c207",
        "two-control-u0.5.csv":
            "ccc1ac64927a94f5576ed8312b792998666372c2a59c2dd5083a1fa2324a78fd",
        "two-control-u0.5.metrics.txt":
            "25d79c0d60b24f7b029b61428a1280280ae5ad222f391418da605ad1b102378c",
        "two-control-u0.csv":
            "1f1ef8987f4177cdf358d1a4112d1770719c3631d6a787b17a3a0eab6f3948b2",
        "two-control-u0.metrics.txt":
            "83b7a7bfe4107e2b800e650b44dbbd4670a26cde8ec7fd6f434502749d3796f1",
    }


def test_analysis_files_match_their_recorded_hashes(tmp_path):
    # recorded from the numpy-array eigen solver and report writer
    runs = {
        "basic.txt": ["analyze"],
        "two-control.txt": ["analyze", "--model=two-control", "--treat=0:10:0.5:0.3"],
        "combined.txt": ["analyze", "--model=combined", "--treat=0:10:0.7"],
        "subcritical.txt": ["analyze", "--param=beta=1e-5"],  # R0 = 0.87
        "linearized.csv": ["linearize", "--t1=50"],
    }
    for name, argv in runs.items():
        assert main([*argv, f"--out={tmp_path / name}"]) == 0
    digests = {path.name: hashlib.sha256(path.read_bytes()).hexdigest()
               for path in tmp_path.iterdir()}
    assert digests == {
        "basic.txt": "0c7a8220b71aef40eae1b86430c37eeedc1786f266beec9fe1eae48bf5158545",
        "two-control.txt": "901867a09523ef81ba3216b7546892dcb040cab170c3cbd7c2231caa71fd93ee",
        "combined.txt": "9b994a6b999a32ba69a594fcbfd9c2b39f9b031459658c0b242860f17eae004c",
        "subcritical.txt": "25164c296c0e21cc3bad87df8eeedc4d05bafcecfdf34e6cc7806cc8655254d0",
        "linearized.csv": "395576fb41612da65c6b6557106b3b44372809ba704a7a13bf634ccc8d3ac359",
        "linearized.report.txt":
            "1078ca0935b8e22a24341181a363b4ab39d34197996b76fb0e89b67d54719381",
    }


# --- config windows obey the --treat rules -----------------------------------------

@pytest.mark.parametrize("command", ["simulate", "analyze"])
def test_combined_config_window_with_nonzero_u1_exits_two(tmp_path, capsys, command):
    doc = {"kind": "combined", "mesh": {"a": 0.0, "b": 20.0, "h": 0.1},
           "schedule": [{"t_start": 5.0, "t_end": 10.0, "u1": 0.9, "u2": 0.0}]}
    path = tmp_path / "c.json"
    path.write_text(json.dumps(doc))
    assert main([command, f"--config={path}", f"--out={tmp_path / 'out.txt'}"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: --config: schedule: the combined model has a single efficacy")
    assert "--treat" not in err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["c.json"]


# --- reproduce reads only params from a config file -------------------------------

@pytest.mark.parametrize("section, value", [
    ("kind", "combined"),
    ("mesh", {"a": 0.0, "b": 400.0, "h": 0.5}),
    ("initial", {"T": 1000.0, "T_star": 1.0, "V": 50.0}),
    ("schedule", [{"t_start": 150.0, "t_end": 400.0, "u1": 0.5, "u2": 0.5}]),
    ("label", "mine"),
])
def test_reproduce_rejects_the_config_sections_it_would_ignore(tmp_path, capsys,
                                                                section, value):
    path = tmp_path / "c.json"
    path.write_text(json.dumps({"params": {"s": 11.0}, section: value}))
    out = tmp_path / "r"
    assert main(["reproduce", f"--config={path}", f"--out={out}"]) == 2
    assert capsys.readouterr().err.startswith(f"error: --config: {section}: reproduce ")
    assert not out.exists()


def test_reproduce_with_a_step_that_misses_the_600_day_mesh_writes_nothing(tmp_path, capsys):
    out = tmp_path / "r"
    assert main(["reproduce", "--h=80", f"--out={out}"]) == 2  # divides 400, not 600
    assert "does not divide [0.0, 600.0]" in capsys.readouterr().err
    assert not out.exists()


def test_reproduce_still_reads_params_from_a_config_file(tmp_path):
    path = tmp_path / "c.json"
    path.write_text(json.dumps({"params": {"s": 11.0}}))
    assert resolve_scenario(parse_args(["reproduce", f"--config={path}"])).params.s == 11.0
    assert main(["reproduce", "--h=0.5", f"--config={path}", f"--out={tmp_path / 'f'}"]) == 0
    assert main(["reproduce", "--h=0.5", "--param=s=11", f"--out={tmp_path / 'p'}"]) == 0
    summaries = [(tmp_path / d / "summary.csv").read_bytes() for d in ("f", "p")]
    assert summaries[0] == summaries[1]
