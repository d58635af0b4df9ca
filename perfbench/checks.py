"""Output checks behind the benchmark's failure count.

These are invariants and self-consistency checks rather than golden
bytes, so a legitimate numerical change (exact window edges, a batched
kernel) still passes while a corrupted or truncated output does not.
Every check returns a list of problems; an empty list means the output
is correct.
"""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np

HEADER = "t,T,Tstar,V"
METRIC_KEYS = (
    "final_T", "final_Tstar", "final_V",
    "peak_viral_load", "peak_viral_load_day",
    "min_viral_load_during_treatment", "min_viral_load_during_treatment_day",
    "suppression_days", "rebound_day",
)
# keys whose value may legitimately read "none"
OPTIONAL_KEYS = {"min_viral_load_during_treatment", "min_viral_load_during_treatment_day",
                 "rebound_day"}
V_FLOOR = -1e-6
# relative slack on the T + T* bound; the CSV carries 9 significant digits
MASS_REL_TOL = 1e-6


def invariants(states: np.ndarray, initial, params) -> list[str]:
    """Finite states, V >= -1e-6 and T + T* <= max(T0 + T*0, s/min(d, m2)).

    The bound follows from d(T + T*)/dt = s - d*T - m2*T*.
    """
    T0, Tstar0 = initial[0], initial[1]
    s, d, m2 = params
    if not np.all(np.isfinite(states)):
        return ["non-finite state"]
    problems = []
    if states[:, 2].min() < V_FLOOR:
        problems.append(f"V dips to {states[:, 2].min():.3g} < {V_FLOOR}")
    bound = max(T0 + Tstar0, s / min(d, m2))
    mass = states[:, 0] + states[:, 1]
    if mass.max() > bound * (1.0 + MASS_REL_TOL):
        problems.append(f"T + T* reaches {mass.max():.9g} above bound {bound:.9g}")
    return problems


def read_csv(path: Path, n_steps: int, t0: float, h: float) -> tuple[np.ndarray | None, list[str]]:
    """Parse a trajectory CSV; returns (rows of t,T,Tstar,V, problems)."""
    try:
        data = Path(path).read_bytes()
    except OSError as err:
        return None, [f"{path.name}: cannot read ({err.strerror})"]
    if b"\r" in data:
        return None, [f"{path.name}: CR in line endings"]
    lines = data.decode("ascii", errors="replace").split("\n")
    if lines[-1] != "":
        return None, [f"{path.name}: missing final newline"]
    lines.pop()
    if not lines or lines[0] != HEADER:
        return None, [f"{path.name}: header {lines[0] if lines else ''!r} != {HEADER!r}"]
    if len(lines) - 1 != n_steps + 1:
        return None, [f"{path.name}: {len(lines) - 1} rows, expected {n_steps + 1}"]
    try:
        rows = np.loadtxt(lines[1:], delimiter=",", ndmin=2)
    except ValueError as err:
        return None, [f"{path.name}: unparseable value ({err})"]
    if rows.shape != (n_steps + 1, 4):
        return None, [f"{path.name}: shape {rows.shape}, expected {(n_steps + 1, 4)}"]
    times = t0 + np.arange(n_steps + 1) * h
    if np.any(np.abs(rows[:, 0] - times) > 1e-8 * np.maximum(1.0, np.abs(times))):
        return None, [f"{path.name}: time column is not the mesh"]
    return rows, []


def read_metrics(path: Path) -> tuple[dict | None, list[str]]:
    """Parse a key=value metrics file holding exactly the nine keys."""
    try:
        text = Path(path).read_text()
    except OSError as err:
        return None, [f"{path.name}: cannot read ({err.strerror})"]
    values = {}
    for line in text.splitlines():
        key, sep, value = line.partition("=")
        if not sep:
            return None, [f"{path.name}: line {line!r} is not key=value"]
        if value == "none" and key in OPTIONAL_KEYS:
            values[key] = None
            continue
        try:
            values[key] = float(value)
        except ValueError:
            return None, [f"{path.name}: {key} has unparseable value {value!r}"]
        if not math.isfinite(values[key]):
            return None, [f"{path.name}: {key} is not finite"]
    if tuple(values) != METRIC_KEYS:
        return None, [f"{path.name}: keys {list(values)} != {list(METRIC_KEYS)}"]
    return values, []


def check_trajectory_files(csv_path: Path, n_steps: int, t0: float, h: float,
                           initial, params) -> tuple[np.ndarray | None, dict | None, list[str]]:
    """CSV plus sibling metrics file: format, invariants, and agreement.

    Returns the parsed rows and metrics so callers can compare states.
    """
    rows, problems = read_csv(csv_path, n_steps, t0, h)
    if problems:
        return None, None, problems
    metrics, problems = read_metrics(csv_path.with_suffix(".metrics.txt"))
    if problems:
        return None, None, problems
    problems = invariants(rows[:, 1:], initial, params)
    final = (metrics["final_T"], metrics["final_Tstar"], metrics["final_V"])
    if tuple(rows[-1, 1:]) != final:
        problems.append(f"{csv_path.name}: metrics final state {final} != last row")
    if metrics["peak_viral_load"] != rows[:, 3].max():
        problems.append(f"{csv_path.name}: peak_viral_load is not the V maximum")
    return rows, metrics, problems


def relative_error(values, reference, floor: float = 0.0) -> float:
    """Largest |value - reference| / max(|reference|, floor) over components."""
    values = np.asarray(values, dtype=float)
    reference = np.asarray(reference, dtype=float)
    return float(np.max(np.abs(values - reference) / np.maximum(np.abs(reference), floor)))


def count_equilibrium_blocks(report: str) -> int:
    return sum(1 for line in report.splitlines() if line.startswith("equilibrium: "))


def read_key_values(path: Path, keys) -> tuple[dict | None, list[str]]:
    """Flat key=value report that holds at least the given keys."""
    try:
        text = Path(path).read_text()
    except OSError as err:
        return None, [f"{path.name}: cannot read ({err.strerror})"]
    values = dict(line.partition("=")[::2] for line in text.splitlines())
    missing = [k for k in keys if k not in values]
    if missing:
        return None, [f"{path.name}: missing keys {missing}"]
    return values, []
