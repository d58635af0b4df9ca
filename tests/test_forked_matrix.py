"""`run_matrix` marches the second half of its levels in a forked child where a
second process pays: the results and errors equal those of the in-process march,
the child computes no metrics, a child that dies early changes no result, and no
child outlives a call.  An error in the child reaches the caller as in-process,
also one that pickle cannot rebuild.  Where the system refuses the pipe or the
fork, `run_matrix` and `reproduce` march in-process."""

import errno
import os
import sys
import threading
import warnings
from dataclasses import replace

import pytest

from viradyn import (
    DEFAULT_INITIAL,
    EfficacySchedule,
    MeshSpec,
    ModelKind,
    ModelParams,
    ScenarioConfig,
    reference_scenarios,
    run_matrix,
)
from viradyn import scenario
from viradyn.cli import main
from viradyn.errors import IntegrationBlowupError, NumericalError

from test_kernel import assert_one_read_only_times_array_per_start_and_step

pytestmark = pytest.mark.skipif(not hasattr(os, "fork") or not sys.platform.startswith("linux"),
                                reason="run_matrix and reproduce fork only on Linux")
two_cpus = pytest.mark.skipif(not scenario._second_process(),
                              reason="a second process is used only with two CPUs or more")

BASE = ScenarioConfig(ModelKind.TWO_CONTROL, ModelParams(), MeshSpec(0.0, 600.0, 0.1),
                      DEFAULT_INITIAL, EfficacySchedule.window(150.0, 400.0, 0.0, 0.0),
                      label="base")
LEVELS = [(0.0, 0.0), (0.2, 0.2), (0.3, 0.5), (0.5, 0.5), (0.7, 0.1)]
# untreated, k = 300 blows up at step 7 of h = 1; at u = 0.9 the infection dies out
HOT = ScenarioConfig(ModelKind.TWO_CONTROL, ModelParams(k=300.0), MeshSpec(0.0, 5000.0, 1.0),
                     DEFAULT_INITIAL, EfficacySchedule.window(0.0, 5000.0, 0.0, 0.0), label="hot")


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def counted_forks(monkeypatch) -> list:
    """Wrap ``os.fork``; the list gets one item per call in this process."""
    calls, fork = [], os.fork
    monkeypatch.setattr(os, "fork", lambda: calls.append(1) or fork())
    return calls


def assert_same_results(these, those):
    assert len(these) == len(those)
    for a, b in zip(these, those):
        assert a.config == b.config and a.metrics == b.metrics
        assert a.trajectory.states.tobytes() == b.trajectory.states.tobytes()
        assert a.trajectory.times.tobytes() == b.trajectory.times.tobytes()


def in_process(monkeypatch, call):
    """``call()`` with ``os.fork`` deleted, so nothing forks."""
    with monkeypatch.context() as m:
        m.delattr(os, "fork")
        return call()


@two_cpus
@pytest.mark.parametrize("steps, forks", [
    (scenario._FORK_MIN_STEPS, 1),
    (scenario._FORK_MIN_STEPS - 1, 0),
], ids=["at-the-cutoff", "below-it"])
def test_run_matrix_forks_only_from_the_cutoff(monkeypatch, steps, forks):
    base = ScenarioConfig(ModelKind.COMBINED, ModelParams(), MeshSpec(0.0, steps / 10, 0.1),
                          DEFAULT_INITIAL, EfficacySchedule.window(10.0, 20.0, 0.0, 0.0))
    assert base.mesh.n_steps == steps  # the child's half is the second of two levels
    levels = [(0.0, 0.4), (0.0, 0.7)]
    calls = counted_forks(monkeypatch)
    results = run_matrix(base, levels)
    assert len(calls) == forks
    assert_no_child_left()
    assert_same_results(results, in_process(monkeypatch, lambda: run_matrix(base, levels)))


@two_cpus
def test_forked_run_matrix_equals_the_in_process_one(monkeypatch):
    calls = counted_forks(monkeypatch)
    forked = run_matrix(BASE, LEVELS)
    assert len(calls) == 1
    assert_no_child_left()
    assert_same_results(forked, in_process(monkeypatch, lambda: run_matrix(BASE, LEVELS)))
    assert len(assert_one_read_only_times_array_per_start_and_step(forked)) == 1


def test_a_forked_half_reports_what_it_copied_by_index_in_all_configs(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})  # a fork pays
    configs = [replace(BASE, schedule=BASE.schedule.with_efficacies(*u)) for u in LEVELS[:4]]
    forked = list(scenario._results(configs, 2))
    alone = list(scenario._results(configs, len(configs)))
    assert_no_child_left()
    assert_same_results([r for r, _ in forked], [r for r, _ in alone])
    # the child's first config marches, as it has no earlier config to copy from
    assert [c for _, c in forked] == [None, (0, 1500), None, (2, 1500)]
    assert [c for _, c in alone] == [None, (0, 1500), (1, 1500), (2, 1500)]


@two_cpus
@pytest.mark.parametrize("levels, label", [
    ([(0.9, 0.9)] * 3 + [(0.0, 0.0)], "hot[3:u1=0,u2=0]"),
    ([(0.0, 0.0)] + [(0.9, 0.9)] * 3, "hot[0:u1=0,u2=0]"),
], ids=["in-the-child", "in-the-parent"])
def test_a_blowup_in_either_half_raises_the_in_process_error(monkeypatch, levels, label):
    calls = counted_forks(monkeypatch)
    with pytest.raises(IntegrationBlowupError) as forked:
        run_matrix(HOT, levels)
    assert len(calls) == 1
    assert_no_child_left()
    with pytest.raises(IntegrationBlowupError) as alone:
        in_process(monkeypatch, lambda: run_matrix(HOT, levels))
    assert type(forked.value) is type(alone.value)
    assert str(forked.value) == str(alone.value)
    assert vars(forked.value) == vars(alone.value) == {"t": 7.0, "stage": 1, "step": 7,
                                                       "label": label}


class TwoArgumentError(NumericalError):
    """An error that pickle cannot rebuild: its constructor takes two arguments, and no
    ``__reduce__`` says which."""

    def __init__(self, label, step):
        self.label, self.step = label, step
        super().__init__(f"failed at step {step} of {label!r}")


@pytest.mark.parametrize("call, label", [
    (lambda: list(scenario._results(reference_scenarios())), "two-control-u0.3"),
    (lambda: run_matrix(BASE, LEVELS), "base[4:u1=0.7,u2=0.1]"),  # the child marches 3 and 4
], ids=["streaming-reproduce-suite", "second-level-of-the-child-s-half"])
def test_any_error_in_the_child_reaches_the_caller_as_in_process(monkeypatch, call, label):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})  # a fork pays
    integrate = scenario._integrate

    def failing(config, *args):
        if config.label == label:
            raise TwoArgumentError(label, 3)
        return integrate(config, *args)

    monkeypatch.setattr(scenario, "_integrate", failing)  # the child inherits it
    calls = counted_forks(monkeypatch)
    with pytest.raises(TwoArgumentError) as forked:
        call()
    assert len(calls) == 1
    assert_no_child_left()
    with pytest.raises(TwoArgumentError) as alone:
        in_process(monkeypatch, call)
    assert type(forked.value) is type(alone.value)
    assert str(forked.value) == str(alone.value)
    assert vars(forked.value) == vars(alone.value) == {"label": label, "step": 3}


@two_cpus
def test_the_child_computes_no_metrics(tmp_path, monkeypatch):
    test_pid, integrated_here = os.getpid(), []
    compute_metrics, integrate = scenario.compute_metrics, scenario._integrate

    def here_only(trajectory, schedule):
        if os.getpid() != test_pid:
            raise RuntimeError("compute_metrics ran in a child")
        return compute_metrics(trajectory, schedule)

    def recorded(config, *args):
        if os.getpid() == test_pid:
            integrated_here.append(config.label)
        return integrate(config, *args)

    monkeypatch.setattr(scenario, "compute_metrics", here_only)  # the child inherits it
    monkeypatch.setattr(scenario, "_integrate", recorded)
    calls = counted_forks(monkeypatch)
    assert main(["reproduce", f"--out={tmp_path / 'r'}"]) == 0
    assert len(list((tmp_path / "r").iterdir())) == 29
    # this process would march whatever the child did not send: the child sent it all
    assert integrated_here == []
    results = run_matrix(BASE, LEVELS)
    assert len(results) == len(LEVELS)
    assert integrated_here == [result.config.label for result in results[:3]]
    assert len(calls) == 2
    assert_no_child_left()


def test_a_child_dying_after_its_first_level_changes_no_result(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})  # a fork pays
    test_pid, march, marched_here = os.getpid(), scenario._march, []

    def first_then_die(configs, *shared_times):
        results = march(configs, *shared_times)
        if os.getpid() == test_pid:
            marched_here.append([config.label for config in configs])
            yield from results
            return
        yield next(results)
        os._exit(5)

    monkeypatch.setattr(scenario, "_march", first_then_die)  # the child inherits it
    calls = counted_forks(monkeypatch)
    forked = run_matrix(BASE, LEVELS)
    assert len(calls) == 1
    assert_no_child_left()
    labels = [result.config.label for result in forked]
    # this process marched its own half, then the child's whole half, which was never sent
    assert marched_here == [labels[:3], labels[3:]]
    assert_same_results(forked, in_process(monkeypatch, lambda: run_matrix(BASE, LEVELS)))


def test_one_cpu_marches_in_process_with_the_same_outputs(tmp_path, monkeypatch):
    assert main(["reproduce", f"--out={tmp_path / 'usual'}"]) == 0
    usual = run_matrix(BASE, LEVELS)

    def no_fork():
        raise AssertionError("forked on one CPU")

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    monkeypatch.setattr(os, "fork", no_fork)
    assert not scenario._second_process()
    assert main(["reproduce", f"--out={tmp_path / 'one'}"]) == 0
    one = {p.name: p.read_bytes() for p in (tmp_path / "one").iterdir()}
    assert len(one) == 29
    assert one == {p.name: p.read_bytes() for p in (tmp_path / "usual").iterdir()}
    assert_same_results(run_matrix(BASE, LEVELS), usual)
    assert_no_child_left()


def open_fds() -> int:
    return len(os.listdir("/proc/self/fd"))


@pytest.mark.parametrize("call, err", [
    ("fork", BlockingIOError(errno.EAGAIN, os.strerror(errno.EAGAIN))),  # a full pids cgroup
    ("fork", OSError(errno.ENOMEM, os.strerror(errno.ENOMEM))),  # strict overcommit
    ("pipe", OSError(errno.EMFILE, os.strerror(errno.EMFILE))),  # no descriptor left
], ids=["fork-EAGAIN", "fork-ENOMEM", "pipe-EMFILE"])
def test_a_refused_pipe_or_fork_marches_in_process_with_the_same_outputs(
        tmp_path, monkeypatch, call, err):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})  # a fork pays
    assert main(["reproduce", f"--out={tmp_path / 'forked'}"]) == 0
    forked = run_matrix(BASE, LEVELS)
    fds, refusals = open_fds(), []

    def refused():
        refusals.append(call)
        raise err

    monkeypatch.setattr(os, call, refused)  # no process, descriptor or memory is used up
    assert main(["reproduce", f"--out={tmp_path / 'refused'}"]) == 0
    assert_same_results(run_matrix(BASE, LEVELS), forked)
    assert refusals == [call, call]
    assert_no_child_left()
    assert open_fds() == fds
    alone = {p.name: p.read_bytes() for p in (tmp_path / "refused").iterdir()}
    assert len(alone) == 29
    assert alone == {p.name: p.read_bytes() for p in (tmp_path / "forked").iterdir()}


def test_concurrent_forked_calls_equal_a_serial_one(monkeypatch):
    # four threads on two cores, each forking: the README says concurrent use needs no
    # synchronization
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})  # a fork pays
    levels = [(u, u) for u in (0.0, 0.1, 0.2, 0.3, 0.4, 0.5)]
    serial = run_matrix(BASE, levels)
    calls = counted_forks(monkeypatch)
    results, errors, filters = [], [], list(warnings.filters)

    def three_calls():
        try:
            for _ in range(3):
                results.append(run_matrix(BASE, levels))
        except BaseException as exc:
            errors.append(exc)
            raise

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=three_calls) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []
    assert len(results) == len(calls) == 12
    for these in results:
        assert_same_results(these, serial)
    assert_no_child_left()
    assert warnings.filters == filters  # the fork's own filter is not left behind
