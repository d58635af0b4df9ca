"""The public API that ``perfbench/make_reference.py`` builds the benchmark's
reference states from: ``EfficacySchedule.efficacies_at`` cuts each scenario
into constant-efficacy segments, and ``rhs`` is integrated on each of them.
The script is imported by path and run as it stands."""

import importlib.util
import json
from pathlib import Path

import numpy as np
import pytest

from viradyn import reference_scenarios

SCRIPT = Path(__file__).resolve().parent.parent / "perfbench" / "make_reference.py"
CONFIGS = {config.label: config for config in reference_scenarios()}


@pytest.fixture(scope="module")
def make_reference():
    spec = importlib.util.spec_from_file_location("make_reference", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def checkpoints(make_reference):
    return json.loads(make_reference.OUT.read_text())["checkpoints"]


def test_segments_split_a_window_at_its_edges(make_reference):
    segments = make_reference.segments(CONFIGS["two-control-u0.5"])
    assert segments == [(0, 150, 0, 0), (150, 400, 0.5, 0.5), (400, 600, 0, 0)]


def test_checkpoints_cover_the_reproduce_suite(checkpoints):
    assert sorted(checkpoints) == sorted(CONFIGS)
    assert len(CONFIGS) == 14


@pytest.mark.parametrize("label", sorted(CONFIGS))
def test_state_at_day_20_matches_the_stored_checkpoint(make_reference, checkpoints, label):
    state = make_reference.state_at(CONFIGS[label], make_reference.REFINE, 20.0)
    stored = np.array(checkpoints[label]["20.0"])
    assert np.all(np.abs(state - stored) <= 1e-12 * np.abs(stored))
