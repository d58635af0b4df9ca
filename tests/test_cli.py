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
from viradyn import EfficacySchedule, run
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


def test_reproduce_files_match_their_recorded_hashes(tmp_path):
    # recorded from the per-value writer; the kernel is IEEE + - * / only
    out = tmp_path / "r"
    assert main(["reproduce", "--h", "0.5", f"--out={out}"]) == 0
    digests = {name: hashlib.sha256((out / name).read_bytes()).hexdigest()
               for name in ("summary.csv", "two-control-u0.5.csv")}
    assert digests == {
        "summary.csv": "681a796eb9badb4508eabc597de8adef11b19ebfb62517229e12409bb0652f3f",
        "two-control-u0.5.csv":
            "ccc1ac64927a94f5576ed8312b792998666372c2a59c2dd5083a1fa2324a78fd",
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
