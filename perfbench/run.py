"""viradyn benchmark: run one workload and print one JSON result line.

    python3 perfbench/run.py --workload reproduce|sweep|cli-mix --seed N \\
        --seconds S --trace 0|1

Run it from the repository root; it imports ``viradyn`` from ``src/`` of
the checkout it sits in and fails (exit 2, no result line) without it.

``--trace 0`` measures the end-to-end metrics with nothing wrapped:
set-up time over several fresh interpreters, then untimed warm-up, then
timed passes until ``--seconds`` is used up (at least three; on cli-mix
at least ten, whose first ten give the latency figures).
``--trace 1`` alternates untraced and traced passes and reports the
per-layer metrics of the traced ones, plus the tracing overhead.  Every
pass's outputs are checked; an operation whose output fails a check
counts as failed.  Times are scaled to nominal machine speed by the
calibration units of ``speed.py``; the raw times stay in the record.
The last line of standard output is the JSON result;
the lines before it repeat each metric with its unit, the ungated
figures and the environment.  A fuller record goes to
``perfbench/_results/``.
"""

from __future__ import annotations

import os

# one thread: set before numpy is imported, here and in the set-up probes
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

from speed import SpeedProbe

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / "_work"
RESULTS = HERE / "_results"

SETUP_PROBES = 11
MIN_PASSES = 3            # untraced passes in a --trace 0 run
LATENCY_PASSES = 10       # untraced cli-mix passes behind the latency figures
MIN_TRACE_PASSES = 2      # of each kind in a --trace 1 run
HARD_LIMIT_S = 140.0      # stop adding passes past this, whatever the minimum
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "steps_per_s": "steps/s",
    "peak_rss_mb": "MiB",
}
COMMAND_KINDS = ("simulate", "analyze", "linearize")
OP_KINDS = (*COMMAND_KINDS, "malformed")
PER_LAYER = {
    "model.rhs_calls": "count", "model.rhs_s": "s", "model.rhs_us": "us",
    "integrator.steps": "count", "integrator.integrate_s": "s", "integrator.step_us": "us",
    "integrator.self_s": "s", "integrator.blowups": "count",
    "scenario.run_calls": "count", "scenario.run_s": "s", "scenario.run_matrix_s": "s",
    "scenario.compute_metrics_calls": "count", "scenario.compute_metrics_s": "s",
    "scenario.compare_linearization_s": "s",
    "analysis.equilibria_calls": "count", "analysis.equilibria_s": "s",
    "analysis.jacobian_s": "s", "analysis.eigen3_calls": "count", "analysis.eigen3_s": "s",
    "analysis.evaluate_linearized_calls": "count", "analysis.evaluate_linearized_s": "s",
    "cli.main_s": "s", "cli.main_self_s": "s",
    "cli.parse_s": "s", "cli.resolve_s": "s", "cli.render_analysis_s": "s",
    "cli.emit_calls": "count", "cli.emit_rows": "count", "cli.emit_bytes": "bytes",
    "cli.emit_s": "s", "cli.emit_us_per_row": "us",
    "cli.exit_nonzero": "count",
    **{f"cli.{kind}_ms_{stat}": "ms" for kind in COMMAND_KINDS for stat in ("p50", "tail")},
    "bench.trace_overhead_frac": "1",
}
COUNT_METRICS = {name for name, unit in PER_LAYER.items() if unit in ("count", "bytes")}


def import_viradyn():
    """Import viradyn from this checkout's src/, never from anywhere else."""
    if not (SRC / "viradyn" / "__init__.py").is_file():
        print(f"perfbench: no viradyn sources under {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import viradyn
    if Path(viradyn.__file__).resolve().parent != SRC / "viradyn":
        print(f"perfbench: imported viradyn from {viradyn.__file__}, not {SRC}",
              file=sys.stderr)
        sys.exit(2)
    return viradyn


def environment() -> dict:
    import numpy
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
        if proc.returncode == 0:
            commit = proc.stdout.strip()
    return {"commit": commit, "python": platform.python_version(),
            "numpy": numpy.__version__, "nproc": len(os.sched_getaffinity(0))}


def setup_probe(workload: str, seed: int) -> tuple[float, float]:
    """Seconds from a fresh interpreter to the inputs built: (raw, scaled).

    The child runs the calibration units during its own set-up (see
    ``probe_main``) and reports them, so their time is taken out and the
    speed they saw scales the rest.
    """
    start = perf_counter()
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--setup-probe",
         "--workload", workload, "--seed", str(seed)],
        cwd=ROOT, capture_output=True, text=True, timeout=120)
    raw = perf_counter() - start
    if proc.returncode != 0:
        print(proc.stderr, file=sys.stderr)
        sys.exit(f"perfbench: set-up probe exited {proc.returncode}")
    report = json.loads(proc.stdout)
    return raw, (raw - report["calibration_s"]) * report["speed"]


def probe_main(workload: str, seed: int) -> int:
    """Child side of ``setup_probe``: import viradyn, build the inputs, report."""
    with SpeedProbe() as probe:
        import_viradyn()
        import workloads
        WORK.mkdir(exist_ok=True)
        workdir = Path(tempfile.mkdtemp(prefix=f"{workload}-probe-", dir=WORK))
        try:
            workloads.build(workload, seed, workdir)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps({"calibration_s": sum(probe.units), "speed": probe.speed}))
    return 0


def percentile(values: list[float], pct: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * pct // 100))
    return ordered[int(rank) - 1]


def tail_percentile(n: int) -> float | None:
    """Highest percentile with at least ten samples beyond it."""
    for pct in TAIL_PERCENTILES:
        if n * (100.0 - pct) / 100.0 >= 10.0:
            return pct
    return None


def latency_stats(passes) -> dict:
    """p50 and tail latency per command kind, in nominal ms.

    Only the first ``LATENCY_PASSES`` passes count, so the sample count, and
    with it the tail percentile, is the same on every run of a workload.
    """
    passes = passes[:LATENCY_PASSES]
    stats = {}
    for kind in COMMAND_KINDS:
        samples = [op.latency_s * p.speed * 1e3 for p in passes for op in p.ops
                   if op.kind == kind and op.latency_s is not None]
        pct = tail_percentile(len(samples))
        stats[kind] = {
            "n": len(samples),
            "p50": statistics.median(samples) if samples else 0.0,
            "tail_pct": pct,
            "tail": percentile(samples, pct) if pct is not None else 0.0,
        }
    return stats


def kind_shares(passes) -> dict:
    """Each command kind's share of the command time of a pass, median over passes."""
    shares = {kind: [] for kind in OP_KINDS}
    for p in passes:
        total = sum(op.latency_s for op in p.ops)
        for kind in OP_KINDS:
            shares[kind].append(sum(op.latency_s for op in p.ops if op.kind == kind) / total)
    return {kind: statistics.median(values) for kind, values in shares.items()}


def layer_metrics(tracer, result) -> dict:
    """Per-layer figures of one traced pass."""
    summary = tracer.summary()
    counts = tracer.counts

    def calls(name):
        return summary.get(name, {}).get("calls", 0)

    def secs(name):
        return summary.get(name, {}).get("s", 0.0)

    def per(total, n, scale=1e6):
        return scale * total / n if n else 0.0

    steps = counts.get("integrator.steps", 0)
    rows = counts.get("cli.emit_rows", 0)
    return {
        "model.rhs_calls": calls("model.rhs"),
        "model.rhs_s": secs("model.rhs"),
        "model.rhs_us": per(secs("model.rhs"), calls("model.rhs")),
        "integrator.steps": steps,
        "integrator.integrate_s": secs("integrator.integrate"),
        "integrator.step_us": per(secs("integrator.integrate"), steps),
        "integrator.self_s": summary.get("integrator.integrate", {}).get("self_s", 0.0),
        "integrator.blowups": counts.get("integrator.blowups", 0),
        "scenario.run_calls": calls("scenario.run"),
        "scenario.run_s": secs("scenario.run"),
        "scenario.run_matrix_s": secs("scenario.run_matrix"),
        "scenario.compute_metrics_calls": calls("scenario.compute_metrics"),
        "scenario.compute_metrics_s": secs("scenario.compute_metrics"),
        "scenario.compare_linearization_s": secs("scenario.compare_linearization"),
        "analysis.equilibria_calls": calls("analysis.equilibria"),
        "analysis.equilibria_s": secs("analysis.equilibria"),
        "analysis.jacobian_s": secs("analysis.jacobian"),
        "analysis.eigen3_calls": calls("analysis.eigen3"),
        "analysis.eigen3_s": secs("analysis.eigen3"),
        "analysis.evaluate_linearized_calls": calls("analysis.evaluate_linearized"),
        "analysis.evaluate_linearized_s": secs("analysis.evaluate_linearized"),
        "cli.main_s": secs("cli.main"),
        "cli.main_self_s": summary.get("cli.main", {}).get("self_s", 0.0),
        "cli.parse_s": secs("cli.parse"),
        "cli.resolve_s": secs("cli.resolve"),
        "cli.render_analysis_s": secs("cli.render_analysis"),
        "cli.emit_calls": calls("cli.emit"),
        "cli.emit_rows": rows,
        "cli.emit_bytes": counts.get("cli.emit_bytes", 0),
        "cli.emit_s": secs("cli.emit"),
        "cli.emit_us_per_row": per(secs("cli.emit"), rows),
        "cli.exit_nonzero": sum(1 for op in result.ops if op.rc not in (0, None)),
    }


def run_passes(wl, workdir: Path, seconds: float, trace: bool, spent: float, between):
    """Timed passes until the budget is used; checks each pass untimed.

    With ``trace`` the passes alternate untraced and traced.  ``between``
    runs after each pass, outside the timing.  Returns (untraced passes
    with their scale to nominal speed, traced passes with their tracer and
    scale, failures).
    """
    from tracing import Tracer

    untraced, traced, failures = [], [], []
    durations = []
    start = perf_counter()
    while True:
        use_tracer = trace and len(durations) % 2 == 1
        outdir = workdir / "out"
        outdir.mkdir()
        pass_start = perf_counter()
        tracer = Tracer() if use_tracer else None
        if tracer is not None:
            tracer.install()
        try:
            with SpeedProbe() as probe:
                block_start = perf_counter()
                result = wl.run_pass(outdir, tracer, probe)
                block = perf_counter() - block_start
        finally:
            if tracer is not None:
                tracer.uninstall()
        scale = probe.factor(block)
        result.speed = probe.speed
        failures += [(len(durations), f) for f in wl.check_pass(outdir, result)]
        result.results = None  # keep memory flat across passes
        shutil.rmtree(outdir)
        (traced.append((result, tracer, scale)) if use_tracer
         else untraced.append((result, scale)))
        between()
        durations.append(perf_counter() - pass_start)

        elapsed = perf_counter() - start
        min_untraced = MIN_TRACE_PASSES if trace else MIN_PASSES
        if wl.name == "cli-mix":
            min_untraced = LATENCY_PASSES
        enough = len(untraced) >= min_untraced and (not trace
                                                    or len(traced) >= MIN_TRACE_PASSES)
        next_end = elapsed + statistics.median(durations)
        if enough and next_end > seconds:
            break
        if untraced and (traced or not trace) and spent + next_end > HARD_LIMIT_S:
            break
    return untraced, traced, failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help="import viradyn, build the inputs and exit (used for setup_s)")
    args = parser.parse_args(argv)

    if args.setup_probe:
        return probe_main(args.workload, args.seed)
    run_start = perf_counter()
    import_viradyn()
    import workloads
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r} "
                     f"(choose from {', '.join(workloads.WORKLOADS)})")
    WORK.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK))
    try:
        return measure(args, workloads, workdir, run_start)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def measure(args, workloads, workdir: Path, run_start: float) -> int:
    trace = bool(args.trace)
    setup_times = []

    def probe():
        # spread over the run, so a slow spell of the machine hits few probes
        if not trace and len(setup_times) < SETUP_PROBES:
            setup_times.append(setup_probe(args.workload, args.seed))

    build_start = perf_counter()
    wl = workloads.build(args.workload, args.seed, workdir / "inputs")
    build_s = perf_counter() - build_start
    workloads.warmup(workdir / "warmup")

    untraced, traced, failures = run_passes(wl, workdir, args.seconds, trace,
                                            perf_counter() - run_start, probe)
    while not trace and len(setup_times) < SETUP_PROBES:
        probe()
    final_failures = wl.final_checks()

    n_ops = len(untraced[0][0].ops)
    attempted = n_ops * (len(untraced) + len(traced))
    failed_ops = {(i, f.op) for i, f in failures} | {(-1, f.op) for f in final_failures}
    failed = min(len(failed_ops), attempted)
    walls = [p.wall_s * scale for p, scale in untraced]

    extras = {
        "fail_frac": failed / attempted,
        "passes": len(untraced),
        "pass_wall_s": walls,
        "pass_wall_s_raw": [p.wall_s for p, _ in untraced],
        "pass_scale": [scale for _, scale in untraced],
        "steps_per_pass": untraced[0][0].steps,
        "ops_per_pass": n_ops,
        "build_s_in_process": build_s,
        "setup_probe_s": [scaled for _, scaled in setup_times],
        "setup_probe_s_raw": [raw for raw, _ in setup_times],
        **wl.extras,
    }
    if args.workload == "cli-mix":
        extras["latency_ms"] = latency_stats([p for p, _ in untraced])
        extras["kind_share"] = kind_shares([p for p, _ in untraced])

    if trace:
        per_pass = [{name: value * scale if PER_LAYER[name] in ("s", "us") else value
                     for name, value in layer_metrics(tracer, result).items()}
                    for result, tracer, scale in traced]
        values = {name: statistics.median(p[name] for p in per_pass) for name in per_pass[0]}
        extras["counts_repeat"] = all(p[name] == per_pass[0][name] for p in per_pass
                                      for name in per_pass[0] if name in COUNT_METRICS)
        extras["traced_pass_wall_s"] = [r.wall_s * scale for r, _, scale in traced]
        for kind, st in latency_stats([p for p, _ in untraced]).items():
            values[f"cli.{kind}_ms_p50"] = st["p50"]
            values[f"cli.{kind}_ms_tail"] = st["tail"]
        values["bench.trace_overhead_frac"] = (
            statistics.median(extras["traced_pass_wall_s"]) / statistics.median(walls) - 1.0)
        metrics = {name: (int(values[name]) if name in COUNT_METRICS else values[name], unit)
                   for name, unit in PER_LAYER.items()}
    else:
        values = {
            "setup_s": statistics.median(extras["setup_probe_s"]),
            "wall_s": statistics.median(walls),
            "steps_per_s": statistics.median(p.steps / w for (p, _), w in zip(untraced, walls)),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        metrics = {name: (values[name], unit) for name, unit in END_TO_END.items()}

    env = environment()
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "env": env,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
              "extras": extras,
              "failures": [{"pass": i, "op": f.op, "problem": f.problem}
                           for i, f in failures[:50]]
                          + [{"pass": None, "op": f.op, "problem": f.problem}
                             for f in final_failures]}
    RESULTS.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (RESULTS / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    if trace:
        with open(RESULTS / f"{stem}.spans.jsonl", "w") as fh:
            for i, (_, tracer, _) in enumerate(traced):
                tracer.write(fh, workload=args.workload, seed=args.seed, traced_pass=i)

    for f in record["failures"][:20]:
        print(f"perfbench: FAILED {f['op']}: {f['problem']}", file=sys.stderr)
    print("env " + " ".join(f"{k}={v}" for k, v in env.items()))
    for name, (value, unit) in metrics.items():
        print(f"metric {name} = {value:.6g} {unit}")
    for key, value in extras.items():
        print(f"extra {key} = {json.dumps(value)}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": record["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
