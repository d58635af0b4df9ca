"""`reproduce` marches in a forked child and writes in the parent: the results,
errors, files and exit codes equal those of the in-process march, and no child
outlives a run."""

import math
import os
import pickle
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

import viradyn
from viradyn import (
    DEFAULT_INITIAL,
    EfficacySchedule,
    MeshSpec,
    ModelKind,
    ModelParams,
    ScenarioConfig,
)
from viradyn import scenario
from viradyn.cli import main
from viradyn.errors import (
    IntegrationBlowupError,
    NegativePopulationError,
    NonFiniteStateError,
    NumericalError,
)
from viradyn.scenario import _march, _results

from test_kernel import assert_one_read_only_times_array_per_start_and_step

pytestmark = pytest.mark.skipif(not hasattr(os, "fork") or not sys.platform.startswith("linux"),
                                reason="reproduce forks only on Linux")

MESH = MeshSpec(0.0, 50.0, 0.1)
CLEAN = ScenarioConfig(ModelKind.BASIC, ModelParams(), MESH, DEFAULT_INITIAL,
                       EfficacySchedule(), label="clean")
# the same rates until day 20, so it copies 200 rows of CLEAN
SHARER = ScenarioConfig(ModelKind.TWO_CONTROL, ModelParams(), MESH, DEFAULT_INITIAL,
                        EfficacySchedule.window(20.0, 50.0, 0.5, 0.5), label="sharer")
BLOWUP = ScenarioConfig(ModelKind.BASIC, ModelParams(k=300.0), MeshSpec(0.0, 20.0, 1.0),
                        DEFAULT_INITIAL, EfficacySchedule(), label="blowup")


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("err", [
    NonFiniteStateError("V", math.inf),
    IntegrationBlowupError(7.0, 1, step=7, label="basic-T0-1200"),
    IntegrationBlowupError(0.5, 4),
    NegativePopulationError("V", 1.0, -44.6861, 1, label="basic-T0-1000"),
], ids=["non-finite-state", "blowup-labelled", "blowup-bare", "below-the-floor"])
def test_numerical_errors_round_trip_through_pickle(err):
    again = pickle.loads(pickle.dumps(err))
    assert type(again) is type(err)
    assert str(again) == str(err) and again.args == err.args
    assert vars(again) == vars(err)


def drain(results):
    """The items of ``results``, and the NumericalError that ends them."""
    items = []
    with pytest.raises(NumericalError) as raised:
        for item in results:
            items.append(item)
    return items, raised.value


def test_forked_march_streams_the_in_process_results_then_the_same_error(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})  # a fork pays
    configs = [CLEAN, SHARER, BLOWUP]
    forked, forked_err = drain(scenario._results(configs))
    alone, alone_err = drain(_results(configs, len(configs)))
    assert_no_child_left()
    assert [copied for _, copied in forked] == [copied for _, copied in alone] == [None, (0, 200)]
    for (f, _), (a, _) in zip(forked, alone):
        assert f.config == a.config and f.metrics == a.metrics
        assert f.trajectory.states.tobytes() == a.trajectory.states.tobytes()
        assert f.trajectory.times.tobytes() == a.trajectory.times.tobytes()
    assert_one_read_only_times_array_per_start_and_step([r for r, _ in forked])
    assert type(forked_err) is type(alone_err) is IntegrationBlowupError
    assert str(forked_err) == str(alone_err)
    assert vars(forked_err) == vars(alone_err) == {"t": 7.0, "stage": 1, "step": 7,
                                                   "label": "blowup"}


def test_closing_the_forked_march_early_stops_and_reaps_the_child(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})  # a fork pays
    results = scenario._results([CLEAN, SHARER, BLOWUP])
    next(results)
    results.close()
    assert_no_child_left()


def block_the_fifth_csv(out: Path) -> None:
    (out / "two-control-u0.csv").mkdir(parents=True)


@pytest.mark.parametrize("argv, prepare, rc, files", [
    ([], None, 0, 29),
    (["--h=0.5", "--param=k=1000"], None, 3, 4),  # basic-T0-1000 blows up
    ([], block_the_fifth_csv, 2, 9),  # 4 CSVs, their metrics files and the directory
], ids=["success", "child-error", "parent-error"])
def test_no_child_is_left_after_reproduce(tmp_path, argv, prepare, rc, files):
    out = tmp_path / "r"
    if prepare is not None:
        prepare(out)
    assert main(["reproduce", *argv, f"--out={out}"]) == rc
    assert len(list(out.iterdir())) == files
    assert_no_child_left()


def test_a_blowup_in_the_child_is_reported_as_in_process(tmp_path, capsys):
    out = tmp_path / "r"
    assert main(["reproduce", "--h=0.5", "--param=k=1000", f"--out={out}"]) == 3
    captured = capsys.readouterr()
    assert captured.err == ("numerical failure: integration blew up "
                            "(t=4, stage k2, step 8, scenario 'basic-T0-1000')\n")
    assert captured.out == "ran basic-T0-500\nran basic-T0-800\n"


def run_cli(*args, timeout):
    """``python ARGS`` with this viradyn importable."""
    path = [str(Path(viradyn.__file__).parents[1]), os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}
    return subprocess.run([sys.executable, *args], capture_output=True, text=True, env=env,
                          timeout=timeout)


def test_reproduce_as_main_prints_only_its_lines_with_deprecations_as_errors(tmp_path):
    # Python 3.12+ warns at a fork of a process with threads, and numpy's OpenBLAS has one
    proc = run_cli("-W", "error::DeprecationWarning", "-m", "viradyn.cli", "reproduce",
                   f"--out={tmp_path / 'r'}", timeout=60)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert len(proc.stdout.splitlines()) == 15
    assert len(list((tmp_path / "r").iterdir())) == 29


def test_a_directory_at_the_fifth_csv_exits_two_at_once_and_keeps_the_earlier_files(tmp_path):
    out = tmp_path / "r"
    block_the_fifth_csv(out)
    start = time.monotonic()
    proc = run_cli("-m", "viradyn.cli", "reproduce", f"--out={out}", timeout=10)
    assert time.monotonic() - start < 10
    assert proc.returncode == 2
    assert proc.stderr.startswith("error: [Errno 21] Is a directory: ")
    labels = ["basic-T0-500", "basic-T0-800", "basic-T0-1000", "basic-T0-1200"]
    assert sorted(p.name for p in out.iterdir()) == sorted(
        [f"{label}{suffix}" for label in labels for suffix in (".csv", ".metrics.txt")]
        + ["two-control-u0.csv"])


@pytest.mark.parametrize("end, how", [
    (lambda: os._exit(5), "exited with code 5"),
    (lambda: os.kill(os.getpid(), signal.SIGKILL), "was killed by signal 9"),
], ids=["exit", "signal"])
def test_a_child_that_dies_without_an_error_frame_gives_a_labelled_error(
        tmp_path, capsys, monkeypatch, end, how):
    test_pid = os.getpid()

    def first_then_die(configs, *shared_times):
        results = _march(configs, *shared_times)
        yield next(results)
        assert os.getpid() != test_pid, "the march ran in the test's own process"
        end()

    monkeypatch.setattr(scenario, "_march", first_then_die)  # the child inherits it
    assert main(["reproduce", f"--out={tmp_path / 'r'}"]) == 2
    assert capsys.readouterr().err == (f"error: the march ended before scenario "
                                       f"'basic-T0-800': its process {how}\n")
    assert_no_child_left()


def test_the_in_process_march_writes_the_bytes_of_the_forked_one(tmp_path, monkeypatch):
    assert main(["reproduce", f"--out={tmp_path / 'forked'}"]) == 0
    monkeypatch.delattr(os, "fork")
    assert main(["reproduce", f"--out={tmp_path / 'alone'}"]) == 0
    forked = {p.name: p.read_bytes() for p in (tmp_path / "forked").iterdir()}
    alone = {p.name: p.read_bytes() for p in (tmp_path / "alone").iterdir()}
    assert len(forked) == 29
    assert forked == alone
