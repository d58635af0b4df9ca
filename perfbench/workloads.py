"""The benchmark's three workloads: inputs from a seed, one pass, checks.

Every workload exposes the same surface:

* ``__init__(seed, workdir)`` builds the inputs.  This is the part of
  ``setup_s`` that follows ``import viradyn``.
* ``run_pass(outdir, tracer, probe)`` runs one timed pass and returns a
  :class:`Pass`.  Only this call is timed.  ``probe`` is the running
  :class:`speed.SpeedProbe`; per-command latencies leave out its units.
* ``check_pass(outdir, result)`` checks that pass's outputs, untimed, and
  returns the list of failed operations.
* ``final_checks()`` runs the checks that need extra program calls, once
  per run, and returns the failed operations.
* ``extras`` holds figures printed with the result but not gated.

An operation is one scenario (``reproduce``, ``sweep``) or one command
(``cli-mix``).  The seed picks the inputs.  It never changes the amount
of work in a pass, so any two seeds measure the same cost.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
from dataclasses import dataclass, replace
from pathlib import Path
from time import perf_counter

import numpy as np

from viradyn import analysis, cli, scenario
from viradyn.integrator import MeshSpec
from viradyn.model import EfficacySchedule, ModelKind, ModelParams

import checks

HERE = Path(__file__).resolve().parent
REFERENCE = HERE / "reference.json"

# Loose: ten times the largest final-state error of the RK4 kernel at
# h = 0.1, so a more accurate handling of window edges (ROADMAP item 2)
# passes.  Populations below the floor count as zero here; the
# continuous-therapy runs drive T* and V to ~1e-17.  Eight of the fourteen
# runs end near the same infected equilibrium, so this check alone cannot
# tell them apart.
FINAL_STATE_REL_TOL = 5e-3
POPULATION_FLOOR = 1e-6
# Tight: the states at t = 20 and t = 100 lie before every window edge, so
# only the kernel's own error (at most 1.5e-7 for RK4 at h = 0.1) and the
# CSV's nine digits separate them from the reference.  A wrong initial
# state, two swapped untreated runs or a second-order stage (2.7e-4 at
# t = 20) fails.  The treated runs share one transient up to t = 150.
CHECKPOINT_REL_TOL = 1e-6


class Sink(io.TextIOBase):
    """Discards what the CLI prints, so the terminal costs nothing."""

    def write(self, text):
        return len(text)


@dataclass
class Op:
    kind: str
    latency_s: float | None
    rc: int | None = None


@dataclass
class Pass:
    wall_s: float
    steps: int
    ops: list[Op]
    results: object = None          # in-memory results, for workloads without files
    error: str | None = None        # an exception that escaped the program
    speed: float = 1.0              # nominal / measured calibration-unit time in the pass


@dataclass
class Failure:
    op: str
    problem: str


def _params_tuple(params: ModelParams):
    return params.s, params.d, params.m2


def warmup(workdir: Path) -> None:
    """One small command of each path, so lazy imports and caches are filled."""
    workdir.mkdir(parents=True, exist_ok=True)
    with contextlib.redirect_stdout(Sink()), contextlib.redirect_stderr(Sink()):
        cli.main(["simulate", "--model=two-control", "--t1=20", "--treat=5:10:0.5:0.5",
                  f"--out={workdir / 'warm.csv'}"])
        cli.main(["analyze", f"--out={workdir / 'warm.txt'}"])
        cli.main(["linearize", "--t1=5", f"--out={workdir / 'warm-lin.csv'}"])


# ---------------------------------------------------------------------------
# reproduce: the paper suite through the CLI


class Reproduce:
    """``viradyn reproduce`` in-process: 14 scenarios, 76,000 steps, 15 CSVs.

    The seed leaves it unchanged.
    """

    name = "reproduce"

    def __init__(self, seed: int, workdir: Path):
        self.scenarios = scenario.reference_scenarios()
        reference = json.loads(REFERENCE.read_text())
        self.reference = reference["final_states"]
        self.checkpoints = reference["checkpoints"]
        self.reference_error_bound = reference["error_bound"]
        self.steps = sum(s.mesh.n_steps for s in self.scenarios)
        self.extras: dict = {"reference_error_bound": self.reference_error_bound}
        self._finals: dict[str, tuple] = {}

    def run_pass(self, outdir: Path, tracer=None, probe=None) -> Pass:
        error = rc = None
        start = perf_counter()
        span = tracer.open("cli.main") if tracer else None
        try:
            with contextlib.redirect_stdout(Sink()), contextlib.redirect_stderr(Sink()):
                rc = cli.main(["reproduce", f"--out={outdir}"])
        except Exception as exc:  # counted as failed operations, reported below
            error = f"{type(exc).__name__}: {exc}"
        if span is not None:
            tracer.close(span)
        wall = perf_counter() - start
        ops = [Op("scenario", None, rc) for _ in self.scenarios]
        return Pass(wall, self.steps, ops, error=error)

    def check_pass(self, outdir: Path, result: Pass) -> list[Failure]:
        if result.error or result.ops[0].rc != 0:
            why = result.error or f"exit code {result.ops[0].rc}, expected 0"
            return [Failure(s.label, why) for s in self.scenarios]
        summary_rows, summary_problem = self._read_summary(outdir)
        failures = []
        for cfg in self.scenarios:
            rows, metrics, problems = checks.check_trajectory_files(
                outdir / f"{cfg.label}.csv", cfg.mesh.n_steps, cfg.mesh.a, cfg.mesh.h,
                cfg.initial.as_array(), _params_tuple(cfg.params))
            if metrics is not None:
                for t, ref in self.checkpoints[cfg.label].items():
                    state = rows[round((float(t) - cfg.mesh.a) / cfg.mesh.h), 1:]
                    err = checks.relative_error(state, ref, POPULATION_FLOOR)
                    if err > CHECKPOINT_REL_TOL:
                        problems.append(f"state at t = {t} off the reference by {err:.3g}")
                final = (metrics["final_T"], metrics["final_Tstar"], metrics["final_V"])
                self._finals[cfg.label] = final
                err = checks.relative_error(final, self.reference[cfg.label],
                                            POPULATION_FLOOR)
                if err > FINAL_STATE_REL_TOL:
                    problems.append(f"final state off the reference by {err:.3g}")
                row = summary_rows.get(cfg.label)
                expected = (outdir / f"{cfg.label}.metrics.txt").read_text().splitlines()
                if row != [line.split("=", 1)[1] for line in expected]:
                    problems.append(summary_problem or "summary.csv row differs from metrics")
            failures += [Failure(cfg.label, p) for p in problems]
        return failures

    def _read_summary(self, outdir: Path) -> tuple[dict, str | None]:
        try:
            lines = (outdir / "summary.csv").read_text().splitlines()
        except OSError:
            return {}, "summary.csv missing"
        if lines[:1] != ["label," + ",".join(checks.METRIC_KEYS)]:
            return {}, "summary.csv header"
        if len(lines) - 1 != len(self.scenarios):
            return {}, f"summary.csv has {len(lines) - 1} rows, expected {len(self.scenarios)}"
        rows = {}
        for line in lines[1:]:
            label, *values = line.split(",")
            rows[label] = values
        return rows, None

    def final_checks(self) -> list[Failure]:
        if len(self._finals) == len(self.scenarios):
            self.extras["final_rel_err"] = max(
                checks.relative_error(final, self.reference[label])
                for label, final in self._finals.items())
        return []


# ---------------------------------------------------------------------------
# sweep: run_matrix over seeded efficacy levels, no file output


class Sweep:
    """``scenario.run_matrix`` over seeded levels on two 600-day bases.

    All levels share one mesh and one window [150, 400), which is what a
    batched kernel groups.  No CSV is written.
    """

    name = "sweep"
    # the smallest batch of ROADMAP item 3's throughput curve (N = 14, the
    # size of the reproduce suite), per run_matrix call
    LEVELS_PER_BASE = 14

    def __init__(self, seed: int, workdir: Path):
        rng = random.Random(seed)
        mesh = MeshSpec(0.0, 600.0, 0.1)
        window = EfficacySchedule.window(150.0, 400.0, 0.0, 0.0)
        params = ModelParams()
        self.bases = [
            scenario.ScenarioConfig(ModelKind.TWO_CONTROL, params, mesh,
                                    scenario.DEFAULT_INITIAL, window, label="sweep-two-control"),
            scenario.ScenarioConfig(ModelKind.COMBINED, params, mesh,
                                    scenario.DEFAULT_INITIAL, window, label="sweep-combined"),
        ]
        self.levels = [
            [(round(rng.random(), 4), round(rng.random(), 4))
             for _ in range(self.LEVELS_PER_BASE)],
            [(0.0, round(rng.random(), 4)) for _ in range(self.LEVELS_PER_BASE)],
        ]
        # flat indices of the levels checked against a standalone run
        self.samples = sorted({b * self.LEVELS_PER_BASE + rng.randrange(self.LEVELS_PER_BASE)
                               for b in (0, 1, rng.randrange(2))})
        self.steps = 2 * self.LEVELS_PER_BASE * mesh.n_steps
        self.extras: dict = {}
        self._first: list | None = None
        self._sampled: dict[int, np.ndarray] = {}

    def _labels(self):
        return [f"{base.label}[{i}:u1={u1:g},u2={u2:g}]"
                for base, levels in zip(self.bases, self.levels)
                for i, (u1, u2) in enumerate(levels)]

    def run_pass(self, outdir: Path, tracer=None, probe=None) -> Pass:
        error = None
        results = []
        start = perf_counter()
        try:
            for base, levels in zip(self.bases, self.levels):
                results.append(scenario.run_matrix(base, levels))
        except Exception as exc:
            error = f"{type(exc).__name__}: {exc}"
        wall = perf_counter() - start
        ops = [Op("scenario", None) for _ in self._labels()]
        return Pass(wall, self.steps, ops, results=results, error=error)

    def check_pass(self, outdir: Path, result: Pass) -> list[Failure]:
        labels = self._labels()
        if result.error or len(result.results) != 2:
            return [Failure(label, result.error or "run_matrix returned early")
                    for label in labels]
        flat = [r for per_base in result.results for r in per_base]
        if len(flat) != len(labels):
            return [Failure(label, f"{len(flat)} results for {len(labels)} levels")
                    for label in labels]
        failures = []
        finals = []
        bases = [b for b in self.bases for _ in range(self.LEVELS_PER_BASE)]
        for label, base, res in zip(labels, bases, flat):
            problems = self._check_result(base, res)
            finals.append(np.array(res.trajectory.states[-1]))
            failures += [Failure(label, p) for p in problems]
        if self._first is None:
            self._first = finals
            self._sampled = {i: np.array(flat[i].trajectory.states) for i in self.samples}
        else:
            for label, a, b in zip(labels, self._first, finals):
                if not np.array_equal(a, b):
                    failures.append(Failure(label, "final state differs between passes"))
        return failures

    @staticmethod
    def _check_result(base, res) -> list[str]:
        states = np.asarray(res.trajectory.states)
        n = base.mesh.n_steps
        if states.shape != (n + 1, 3):
            return [f"trajectory shape {states.shape}, expected {(n + 1, 3)}"]
        problems = checks.invariants(states, base.initial.as_array(),
                                     _params_tuple(base.params))
        m = res.metrics
        if tuple(m.final_state.as_array()) != tuple(states[-1]):
            problems.append("metrics final state is not the last trajectory row")
        if m.peak_viral_load != states[:, 2].max():
            problems.append("peak_viral_load is not the V maximum")
        if m.min_viral_load_during_treatment is None:
            problems.append("no treatment minimum although the window is on the mesh")
        return problems

    def final_checks(self) -> list[Failure]:
        """A few seeded levels must equal a standalone ``scenario.run`` bit for bit."""
        failures = []
        labels = self._labels()
        for i in self.samples:
            base = self.bases[i // self.LEVELS_PER_BASE]
            u1, u2 = self.levels[i // self.LEVELS_PER_BASE][i % self.LEVELS_PER_BASE]
            alone = scenario.run(replace(base, schedule=base.schedule.with_efficacies(u1, u2)))
            if i not in self._sampled or not np.array_equal(alone.trajectory.states,
                                                            self._sampled[i]):
                failures.append(Failure(labels[i], "run_matrix differs from a standalone run"))
        return failures


# ---------------------------------------------------------------------------
# cli-mix: seeded single commands, no two sharing a mesh

H_CHOICES = (0.05, 0.1, 0.125, 0.2, 0.25, 0.5)
# The counts give simulate, analyze and linearize about a third of the
# command time of a pass each at the commit that set them (count times the
# measured mean cost: ~25 ms, ~1.8 ms and ~19 ms), so a change to any one
# path moves wall_s by a similar share.  The run reports the measured shares
# as kind_share.  Step counts, model kinds and window counts go by command
# index, so every seed does the same work; the seed draws the values.
SIMULATE_STEPS = (200, 300, 400, 500, 600, 800, 1000, 1200) * 2
LINEARIZE_STEPS = 400
N_LINEARIZE = 21
N_ANALYZE = 224
N_ANALYZE_SUBCRITICAL = 56     # a quarter with R0 < 1: one equilibrium only
CONFIG_SHARE = 3               # every third simulate goes through --config JSON
KINDS = (ModelKind.BASIC, ModelKind.TWO_CONTROL, ModelKind.COMBINED)
LINEARIZE_REPORT_KEYS = ("perturbation", "max_discrepancy_T", "max_discrepancy_Tstar",
                         "max_discrepancy_V", "max_discrepancy")


@dataclass
class Command:
    kind: str                   # simulate, analyze, linearize, malformed
    argv: list[str]             # "{out}" stands for the pass's output directory
    expect_rc: int
    out: str                    # output file name inside the pass directory
    n_steps: int = 0
    t0: float = 0.0
    h: float = 0.0
    initial: tuple = ()
    params: tuple = ()
    expect_equilibria: int = 0
    analyze_args: tuple = ()    # (params, u1, u2, kind) for the equilibrium count


def _r(x: float) -> str:
    return repr(float(x))


class CliMix:
    """A seeded sequence of in-process CLI commands, none sharing a mesh."""

    name = "cli-mix"

    def __init__(self, seed: int, workdir: Path):
        self.rng = random.Random(seed)
        self.workdir = workdir
        workdir.mkdir(parents=True, exist_ok=True)
        self._meshes: set = set()
        commands = [self._simulate(i, n) for i, n in enumerate(SIMULATE_STEPS)]
        commands += [self._analyze(i, i < N_ANALYZE_SUBCRITICAL) for i in range(N_ANALYZE)]
        commands += [self._linearize(i) for i in range(N_LINEARIZE)]
        commands += self._malformed()
        self.rng.shuffle(commands)
        self.commands = commands
        self.steps = sum(c.n_steps for c in commands)
        self.extras: dict = {}

    # -- input generation ----------------------------------------------------

    def _mesh(self, n: int) -> tuple[float, float, float]:
        """An unused mesh of n steps; its ends are multiples of h."""
        while True:
            h = self.rng.choice(H_CHOICES)
            t0 = round(self.rng.randrange(0, 400) * h, 9)
            t1 = round(t0 + n * h, 9)
            if (t0, t1, h) not in self._meshes:
                self._meshes.add((t0, t1, h))
                return t0, t1, h

    def _simulate(self, i: int, n: int) -> Command:
        rng = self.rng
        kind = KINDS[i % len(KINDS)]
        t0, t1, h = self._mesh(n)
        initial = (round(rng.uniform(300.0, 1500.0), 2), round(rng.uniform(0.0, 40.0), 3),
                   round(rng.uniform(1.0, 1000.0), 2))
        params = {}
        if rng.random() < 0.3:
            name, lo, hi = rng.choice((("s", 5.0, 15.0), ("d", 0.01, 0.03), ("m1", 2.0, 3.0)))
            params[name] = round(rng.uniform(lo, hi), 4)
        edges = sorted(rng.sample(range(1, n), 2 * (i % 4)))
        windows = []
        for a, b in zip(edges[::2], edges[1::2]):
            u1, u2 = round(rng.random(), 3), round(rng.random(), 3)
            if kind is ModelKind.COMBINED:
                u1 = 0.0
            windows.append((round(t0 + a * h, 9), round(t0 + b * h, 9), u1, u2))
        out = f"sim{i}.csv"
        if i % CONFIG_SHARE == 0:
            doc = {"kind": kind.value, "params": params, "mesh": {"a": t0, "b": t1, "h": h},
                   "initial": dict(zip(("T", "T_star", "V"), initial)),
                   "schedule": [dict(zip(("t_start", "t_end", "u1", "u2"), w))
                                for w in windows],
                   "label": f"mix-{i}"}
            path = self.workdir / f"sim{i}.json"
            path.write_text(json.dumps(doc))
            argv = ["simulate", f"--config={path}"]
        else:
            argv = ["simulate", f"--model={kind.value}", f"--t0={_r(t0)}", f"--t1={_r(t1)}",
                    f"--h={_r(h)}", "--init=" + ",".join(_r(x) for x in initial)]
            argv += [f"--param={k}={_r(v)}" for k, v in params.items()]
            for a, b, u1, u2 in windows:
                spec = (f"{_r(a)}:{_r(b)}:{_r(u2)}" if kind is ModelKind.COMBINED
                        else f"{_r(a)}:{_r(b)}:{_r(u1)}:{_r(u2)}")
                argv.append(f"--treat={spec}")
        argv.append(f"--out={{out}}/{out}")
        p = ModelParams(**params)
        return Command("simulate", argv, 0, out, n_steps=n, t0=t0, h=h, initial=initial,
                       params=_params_tuple(p))

    def _analyze(self, i: int, subcritical: bool) -> Command:
        rng = self.rng
        kind = KINDS[i % len(KINDS)]
        values = {"s": rng.uniform(5.0, 15.0), "d": rng.uniform(0.01, 0.05),
                  "k": rng.uniform(50.0, 150.0), "m1": rng.uniform(1.5, 3.5),
                  "m2": rng.uniform(0.15, 0.4)}
        u1 = round(rng.uniform(0.0, 0.6), 3) if kind is ModelKind.TWO_CONTROL else 0.0
        u2 = round(rng.uniform(0.0, 0.6), 3) if kind is not ModelKind.BASIC else 0.0
        factor = (1.0 - u1) * (1.0 - u2)
        r0 = rng.uniform(0.2, 0.8) if subcritical else rng.uniform(1.5, 8.0)
        values["beta"] = r0 * values["d"] * values["m1"] * values["m2"] / (
            values["s"] * values["k"] * factor)
        t0, t1, h = self._mesh(100 + i)
        argv = ["analyze", f"--model={kind.value}", f"--t0={_r(t0)}", f"--t1={_r(t1)}",
                f"--h={_r(h)}"]
        argv += [f"--param={k}={_r(v)}" for k, v in values.items()]
        if kind is not ModelKind.BASIC:
            a, b = round(t0 + 10 * h, 9), round(t0 + 50 * h, 9)
            spec = f"{_r(a)}:{_r(b)}:" + (_r(u2) if kind is ModelKind.COMBINED
                                           else f"{_r(u1)}:{_r(u2)}")
            argv.append(f"--treat={spec}")
        out = f"an{i}.txt"
        argv.append(f"--out={{out}}/{out}")
        return Command("analyze", argv, 0, out, expect_equilibria=1 if subcritical else 2,
                       analyze_args=(ModelParams(**values), u1, u2, kind))

    def _linearize(self, i: int) -> Command:
        rng = self.rng
        t0, t1, h = self._mesh(LINEARIZE_STEPS)
        argv = ["linearize", f"--t0={_r(t0)}", f"--t1={_r(t1)}", f"--h={_r(h)}"]
        eq = analysis.equilibria(ModelParams(), 0.0, 0.0, ModelKind.BASIC)[1].point.as_array()
        if i % 4:
            perturbation = [rng.uniform(-8.0, 8.0) for _ in range(3)]
            argv.append("--init=" + ",".join(_r(x) for x in eq + perturbation))
        out = f"lin{i}.csv"
        argv.append(f"--out={{out}}/{out}")
        return Command("linearize", argv, 0, out, n_steps=LINEARIZE_STEPS, t0=t0, h=h)

    def _malformed(self) -> list[Command]:
        """One command per usage error class; each must exit 2 and write nothing."""
        rng = self.rng
        m = rng.randrange(10, 200)
        a = rng.randrange(10, 100)
        templates = [
            ["simulate", f"--t1={3 * m + 1}", "--h=0.3"],              # h does not divide
            ["simulate", f"--model=bogus{m}"],                          # unknown model
            ["simulate", f"--treat={a + 20}:{a}:0.5"],                  # start after end
            ["analyze", f"--param=beta=-{rng.uniform(1e-6, 1e-4)!r}"],  # negative rate
            ["simulate", f"--treat={a}:{a + 20}:{1.0 + rng.random():.3f}"],  # efficacy > 1
            ["simulate", f"--config={{out}}/missing{m}.json"],          # unreadable file
            ["linearize", "--model=two-control"],                       # linearize is basic-only
            ["simulate", f"--treat={a}:{a + 30}:0.5", f"--treat={a + 10}:{a + 40}:0.5"],
            ["simulate", f"--init={m},{a}"],                            # two components
            ["simulate", f"--t1={m}", f"--treat={m - 5}:{m + 50}:0.5"],  # window off the mesh
        ]
        return [Command("malformed", argv + [f"--out={{out}}/bad{i}.csv"], 2, f"bad{i}.csv")
                for i, argv in enumerate(templates)]

    # -- passes and checks ---------------------------------------------------

    def run_pass(self, outdir: Path, tracer=None, probe=None) -> Pass:
        """Runs every command once; each op's latency excludes the probe's units."""
        ops = []
        error = None
        argvs = [[a.replace("{out}", str(outdir)) for a in c.argv] for c in self.commands]
        main = cli.main
        start = perf_counter()
        with contextlib.redirect_stdout(Sink()), contextlib.redirect_stderr(Sink()):
            for i, (cmd, argv) in enumerate(zip(self.commands, argvs)):
                span = tracer.open("cli.main", request=f"cmd{i}") if tracer else None
                t = perf_counter()
                units_before = probe.spent if probe else 0.0
                try:
                    rc = main(argv)
                except Exception as exc:
                    rc = None
                    error = error or f"command {i}: {type(exc).__name__}: {exc}"
                units = (probe.spent if probe else 0.0) - units_before
                latency = perf_counter() - t - units
                if span is not None:
                    tracer.close(span)
                ops.append(Op(cmd.kind, latency, rc))
        wall = perf_counter() - start
        return Pass(wall, self.steps, ops, error=error)

    def check_pass(self, outdir: Path, result: Pass) -> list[Failure]:
        failures = []
        for i, (cmd, op) in enumerate(zip(self.commands, result.ops)):
            label = f"cmd{i}:{cmd.kind}"
            if op.rc != cmd.expect_rc:
                failures.append(Failure(label, f"exit code {op.rc}, expected {cmd.expect_rc}"))
                continue
            path = outdir / cmd.out
            problems = getattr(self, f"_check_{cmd.kind}")(cmd, path)
            failures += [Failure(label, p) for p in problems]
        return failures

    @staticmethod
    def _check_simulate(cmd: Command, path: Path) -> list[str]:
        return checks.check_trajectory_files(path, cmd.n_steps, cmd.t0, cmd.h,
                                             cmd.initial, cmd.params)[2]

    @staticmethod
    def _check_analyze(cmd: Command, path: Path) -> list[str]:
        try:
            report = path.read_text()
        except OSError:
            return [f"{path.name} missing"]
        blocks = checks.count_equilibrium_blocks(report)
        library = len(analysis.equilibria(*cmd.analyze_args))
        if blocks != library or blocks != cmd.expect_equilibria:
            return [f"{blocks} equilibrium blocks, library gives {library}, "
                    f"R0 implies {cmd.expect_equilibria}"]
        return []

    @staticmethod
    def _check_linearize(cmd: Command, path: Path) -> list[str]:
        rows, problems = checks.read_csv(path, cmd.n_steps, cmd.t0, cmd.h)
        if problems:
            return problems
        if not np.all(np.isfinite(rows)):
            return [f"{path.name}: non-finite linearized state"]
        report, problems = checks.read_key_values(path.with_suffix(".report.txt"),
                                                  LINEARIZE_REPORT_KEYS)
        if problems:
            return problems
        try:
            discrepancy = [float(report[k]) for k in LINEARIZE_REPORT_KEYS[1:]]
        except ValueError:
            return [f"{path.name}: unparseable discrepancy"]
        if not all(math.isfinite(x) and x >= 0.0 for x in discrepancy):
            return [f"{path.name}: discrepancy {discrepancy} not finite and non-negative"]
        if discrepancy[3] != max(discrepancy[:3]):
            return [f"{path.name}: max_discrepancy is not the component maximum"]
        return []

    @staticmethod
    def _check_malformed(cmd: Command, path: Path) -> list[str]:
        return [f"{path.name} written by a failing command"] if path.exists() else []

    def final_checks(self) -> list[Failure]:
        return []


WORKLOADS = {w.name: w for w in (Reproduce, Sweep, CliMix)}


def build(name: str, seed: int, workdir: Path):
    return WORKLOADS[name](seed, workdir)

