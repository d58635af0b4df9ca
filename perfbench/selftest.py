"""Self-test of the benchmark itself, not of viradyn.

    python3 perfbench/selftest.py

Shows that corrupted outputs are counted as failures, that cli-mix
latencies leave out the calibration units, that the traced counters
repeat exactly from pass to pass and equal the counts derived from the
inputs, and that BENCHMARK.json names the metrics run.py prints.  Prints one PASS/FAIL line per check; exits 1 if any fails.
Takes about a minute.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import sys
import tempfile
from pathlib import Path

import numpy as np

import run

run.import_viradyn()

import workloads  # noqa: E402  (needs viradyn on the path)
from speed import SpeedProbe  # noqa: E402
from tracing import Tracer  # noqa: E402
from viradyn.integrator import Trajectory  # noqa: E402

FAILED = []


def expect(name: str, ok: bool, detail: str = "") -> None:
    print(f"{'PASS' if ok else 'FAIL'} {name}" + (f" ({detail})" if detail and not ok else ""))
    if not ok:
        FAILED.append(name)


def failed_ops(wl, outdir, result) -> set[str]:
    return {f.op for f in wl.check_pass(outdir, result)}


def first(wl, kind):
    return next(i for i, c in enumerate(wl.commands) if c.kind == kind)


def corrupt_line(path: Path, index: int, text: str) -> None:
    lines = path.read_text().split("\n")
    lines[index] = text
    path.write_text("\n".join(lines))


def test_corruption_cli_mix(tmp: Path) -> None:
    wl = workloads.CliMix(7, tmp / "inputs")
    out = tmp / "out"
    out.mkdir()
    result = wl.run_pass(out)
    expect("cli-mix clean pass has no failures", not failed_ops(wl, out, result))

    sims = [i for i, c in enumerate(wl.commands) if c.kind == "simulate"]
    cases = []
    path = out / wl.commands[sims[0]].out
    corrupt_line(path, 5, "0.4,12x,1,2")
    cases.append(("unparseable CSV value", sims[0]))
    path = out / wl.commands[sims[1]].out
    lines = path.read_text().split("\n")
    path.write_text("\n".join(lines[:-3] + [""]))
    cases.append(("truncated CSV", sims[1]))
    path = out / wl.commands[sims[2]].out
    corrupt_line(path, 0, "t,T,Tstar,W")
    cases.append(("wrong CSV header", sims[2]))
    path = (out / wl.commands[sims[3]].out).with_suffix(".metrics.txt")
    path.write_text("\n".join(path.read_text().splitlines()[:-1]) + "\n")
    cases.append(("metrics key missing", sims[3]))
    path = out / wl.commands[sims[4]].out
    rows = path.read_text().split("\n")
    t, T, Ts, V = rows[2].split(",")
    rows[2] = ",".join((t, T, Ts, "-5"))
    path.write_text("\n".join(rows))
    cases.append(("negative viral load", sims[4]))

    an = first(wl, "analyze")
    path = out / wl.commands[an].out
    path.write_text(path.read_text().replace("equilibrium: ", "equilibrium- ", 1))
    cases.append(("equilibrium block dropped", an))
    lin = first(wl, "linearize")
    path = (out / wl.commands[lin].out).with_suffix(".report.txt")
    path.write_text(path.read_text().replace("max_discrepancy=", "max_discrepancy=nan#"))
    cases.append(("linearize report corrupted", lin))
    bad = first(wl, "malformed")
    (out / wl.commands[bad].out).write_text("t,T,Tstar,V\n")
    cases.append(("failing command left an output file", bad))
    flipped = next(i for i, c in enumerate(wl.commands)
                   if c.kind == "analyze" and i != an)
    result.ops[flipped] = dataclasses.replace(result.ops[flipped], rc=3)
    cases.append(("unexpected exit code", flipped))

    failed = failed_ops(wl, out, result)
    for what, index in cases:
        label = f"cmd{index}:{wl.commands[index].kind}"
        expect(f"cli-mix counts a failure: {what}", label in failed, f"failed={sorted(failed)}")
    expect("cli-mix fails nothing it should not", len(failed) == len(cases),
           f"{len(failed)} failed, {len(cases)} corrupted")


def test_corruption_reproduce(tmp: Path) -> None:
    wl = workloads.Reproduce(0, tmp / "inputs")
    out = tmp / "out"
    out.mkdir()
    result = wl.run_pass(out)
    expect("reproduce clean pass has no failures", not failed_ops(wl, out, result))
    label = wl.scenarios[5].label
    csv = out / f"{label}.csv"
    metrics = csv.with_suffix(".metrics.txt")
    # move the final state 1 % off the reference, consistently in both files
    rows = csv.read_text().split("\n")
    t, T, Ts, V = rows[-2].split(",")
    new_T = f"{float(T) * 1.01:.9g}"
    rows[-2] = ",".join((t, new_T, Ts, V))
    csv.write_text("\n".join(rows))
    metrics.write_text(metrics.read_text().replace(f"final_T={T}\n", f"final_T={new_T}\n"))
    other = wl.scenarios[9].label
    summary = out / "summary.csv"
    summary.write_text(summary.read_text().replace(f"{other},", f"{other},1", 1))
    # swap two untreated runs whose final states agree within the loose tolerance
    a, b = (out / f"{wl.scenarios[i].label}" for i in (0, 1))
    for suffix in (".csv", ".metrics.txt"):
        data_a, data_b = (Path(f"{x}{suffix}").read_bytes() for x in (a, b))
        Path(f"{a}{suffix}").write_bytes(data_b)
        Path(f"{b}{suffix}").write_bytes(data_a)
    summary = out / "summary.csv"
    lines = summary.read_text().split("\n")
    (label_a, values_a), (label_b, values_b) = (line.split(",", 1) for line in lines[1:3])
    lines[1:3] = [f"{label_a},{values_b}", f"{label_b},{values_a}"]
    summary.write_text("\n".join(lines))
    # move the state at t = 20 by 1e-5 of itself
    early = wl.scenarios[2]
    csv20 = out / f"{early.label}.csv"
    rows = csv20.read_text().split("\n")
    t, T, Ts, V = rows[1 + 200].split(",")
    rows[1 + 200] = ",".join((t, f"{float(T) * (1 + 1e-5):.9g}", Ts, V))
    csv20.write_text("\n".join(rows))
    failed = failed_ops(wl, out, result)
    expect("reproduce counts a final state off the reference", label in failed,
           f"failed={sorted(failed)}")
    expect("reproduce counts two swapped untreated runs",
           {wl.scenarios[0].label, wl.scenarios[1].label} <= failed, f"failed={sorted(failed)}")
    expect("reproduce counts a transient state off the reference", early.label in failed,
           f"failed={sorted(failed)}")
    expect("reproduce fails nothing it should not", len(failed) == 5,
           f"failed={sorted(failed)}")
    expect("reproduce counts a summary row that disagrees", other in failed,
           f"failed={sorted(failed)}")
    result.ops[0] = dataclasses.replace(result.ops[0], rc=2)
    expect("reproduce counts every scenario when the command fails",
           len(failed_ops(wl, out, result)) == len(wl.scenarios))


def test_corruption_sweep(tmp: Path) -> None:
    wl = workloads.Sweep(0, tmp / "inputs")
    wl.LEVELS_PER_BASE = 2
    wl.levels = [levels[:2] for levels in wl.levels]
    wl.samples = [0]
    result = wl.run_pass(tmp)
    expect("sweep clean pass has no failures", not failed_ops(wl, tmp, result))
    res = result.results[1][0]
    states = np.array(res.trajectory.states)
    states[100, 2] = -1.0
    result.results[1][0] = dataclasses.replace(
        res, trajectory=Trajectory(res.trajectory.times, states))
    failed = failed_ops(wl, tmp, result)
    expect("sweep counts a corrupted trajectory", failed == {wl._labels()[2]},
           f"failed={sorted(failed)}")
    wl._sampled[0] = wl._sampled[0] + 1e-12
    expect("sweep counts a level that differs from a standalone run",
           len(wl.final_checks()) == 1)


def test_latency_leaves_out_units(tmp: Path) -> None:
    wl = workloads.CliMix(11, tmp / "inputs")
    out = tmp / "out"
    out.mkdir()
    with SpeedProbe() as probe:
        result = wl.run_pass(out, probe=probe)
    commands = sum(op.latency_s for op in result.ops)
    # what is left is the loop around the commands, well under 1 % of a pass
    left = result.wall_s - probe.spent - commands
    expect("cli-mix latencies leave out the calibration units",
           probe.spent > 0.01 * result.wall_s and 0.0 <= left < 0.01 * result.wall_s,
           f"wall {result.wall_s:.4f} s, units {probe.spent:.4f} s, commands {commands:.4f} s")


def traced_counts(wl, tmp: Path) -> list[dict]:
    passes = []
    for i in range(2):
        out = tmp / f"traced{i}"
        out.mkdir(parents=True)
        tracer = Tracer()
        tracer.install()
        try:
            result = wl.run_pass(out, tracer)
        finally:
            tracer.uninstall()
        expect(f"{wl.name} traced pass {i} has no failures", not failed_ops(wl, out, result))
        metrics = run.layer_metrics(tracer, result)
        passes.append({k: v for k, v in metrics.items() if k in run.COUNT_METRICS})
    return passes


def test_counts(tmp: Path) -> None:
    for wl in (workloads.Reproduce(0, tmp / "r"), workloads.Sweep(3, tmp / "s"),
               workloads.CliMix(5, tmp / "c")):
        first_pass, second = traced_counts(wl, tmp / wl.name)
        expect(f"{wl.name} counts repeat exactly", first_pass == second,
               f"{first_pass} vs {second}")
        if wl.name == "reproduce":
            steps = sum(s.mesh.n_steps for s in wl.scenarios)
            rows = sum(s.mesh.n_steps + 1 for s in wl.scenarios)
            derived = {"integrator.steps": steps, "model.rhs_calls": 4 * steps,
                       "cli.emit_rows": rows, "cli.emit_calls": len(wl.scenarios),
                       "scenario.run_calls": len(wl.scenarios), "cli.exit_nonzero": 0}
            expect("reproduce counts are 76,000 steps, 304,000 rhs calls, 76,014 rows",
                   (steps, 4 * steps, rows) == (76_000, 304_000, 76_014))
        elif wl.name == "sweep":
            n = len(wl._labels())
            derived = {"integrator.steps": wl.steps, "model.rhs_calls": 4 * wl.steps,
                       "scenario.run_calls": n, "scenario.compute_metrics_calls": n,
                       "cli.emit_rows": 0}
        else:
            sims = [c for c in wl.commands if c.kind == "simulate"]
            derived = {"integrator.steps": wl.steps, "model.rhs_calls": 4 * wl.steps,
                       "cli.emit_calls": len(sims),
                       "cli.emit_rows": sum(c.n_steps + 1 for c in sims),
                       "cli.exit_nonzero": sum(c.expect_rc != 0 for c in wl.commands),
                       "analysis.eigen3_calls": sum(
                           c.expect_equilibria for c in wl.commands if c.kind == "analyze")
                       + sum(c.kind == "linearize" for c in wl.commands)}
        got = {k: first_pass[k] for k in derived}
        expect(f"{wl.name} counts equal those derived from the inputs", got == derived,
               f"got {got}, derived {derived}")


def test_benchmark_json() -> None:
    doc = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    e2e = {m["name"]: m["unit"] for m in doc["end_to_end"]}
    layer = {m["name"]: m["unit"] for m in doc["per_layer"]}
    expect("BENCHMARK.json end_to_end matches run.py", e2e == run.END_TO_END,
           f"{e2e} vs {run.END_TO_END}")
    expect("BENCHMARK.json per_layer matches run.py", layer == run.PER_LAYER,
           f"{sorted(set(layer) ^ set(run.PER_LAYER))}")
    names = {w["name"] for w in doc["workloads"]}
    expect("BENCHMARK.json workloads match run.py", names == set(workloads.WORKLOADS))


def main() -> int:
    run.WORK.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix="selftest-", dir=run.WORK))
    try:
        test_benchmark_json()
        for test in (test_corruption_cli_mix, test_corruption_reproduce,
                     test_corruption_sweep, test_latency_leaves_out_units, test_counts):
            sub = tmp / test.__name__
            sub.mkdir()
            test(sub)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    print(f"{len(FAILED)} failed" if FAILED else "all passed")
    return 1 if FAILED else 0


if __name__ == "__main__":
    sys.exit(main())
