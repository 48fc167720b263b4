"""The CI workflow parses, runs the Tier-1 command that ROADMAP.md names,
and reads the benchmark's workload names."""

from __future__ import annotations

import json
import re
from pathlib import Path

import yaml

ROOT = Path(__file__).resolve().parent.parent


def test_workflow_runs_the_tier1_command():
    workflow = yaml.safe_load(
        (ROOT / ".github/workflows/tests.yml").read_text(encoding="utf-8"))
    roadmap = (ROOT / "ROADMAP.md").read_text(encoding="utf-8")
    command = re.search(r"\*\*Tier-1 verify:\*\* `([^`]+)`", roadmap).group(1)
    runs = [step.get("run", "").strip() for step in workflow["jobs"]["tier1"]["steps"]
            if step.get("name") == "Tier-1 tests"]
    assert runs == [command]


def test_workflow_reads_the_workload_names():
    """The benchmark steps loop over the names BENCHMARK.json declares,
    read when they run, so that a new workload needs no workflow edit; a
    failed or empty read fails its step rather than leaving the loops
    nothing to run."""
    text = (ROOT / ".github/workflows/tests.yml").read_text(encoding="utf-8")
    names = [w["name"] for w in json.loads(
        (ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["workloads"]]
    assert names and not [name for name in names if name in text]
    assert "for W in $WORKLOADS; do" in text
    assert 'test -n "$W"' in text
