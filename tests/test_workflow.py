"""The CI workflow parses and runs the Tier-1 command that ROADMAP.md names."""

from __future__ import annotations

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
