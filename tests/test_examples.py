"""Smoke tests: every example script runs end to end and prints its story."""

from __future__ import annotations

import runpy
import sys
from pathlib import Path

import pytest

EXAMPLES_DIR = Path(__file__).resolve().parent.parent / "examples"

EXPECTED_OUTPUT = {
    "quickstart.py": ["significance=13", "matches Figure 2"],
    "recommendation.py": ["Recommended friends", "Movies to recommend"],
    "fraud_detection.py": ["Precision of the flagged ring", "fraud_account"],
    "team_formation.py": ["Recommended team", "dev_core_0"],
    "index_maintenance.py": ["incremental updates", "reloaded"],
    "serve_snapshot.py": ["cold start", "agree with sequential"],
}


@pytest.mark.parametrize("script", sorted(EXPECTED_OUTPUT))
def test_example_runs(script, capsys, monkeypatch):
    path = EXAMPLES_DIR / script
    assert path.exists(), f"missing example {script}"
    monkeypatch.setattr(sys, "argv", [str(path)])
    runpy.run_path(str(path), run_name="__main__")
    output = capsys.readouterr().out
    for snippet in EXPECTED_OUTPUT[script]:
        assert snippet in output


def test_examples_directory_has_at_least_three_scenarios():
    scripts = [p.name for p in EXAMPLES_DIR.glob("*.py")]
    assert "quickstart.py" in scripts
    assert len(scripts) >= 4
