"""The CI workflow runs the Tier-1 verify command that ROADMAP.md states."""
from __future__ import annotations

import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_workflow_runs_the_roadmap_verify_command():
    # read as text, so that no YAML parser is needed: exactly one step's `run:`
    # line is the command in backticks on ROADMAP's "Tier-1 verify" line
    roadmap = (ROOT / "ROADMAP.md").read_text()
    verify = re.search(r"^\*\*Tier-1 verify:\*\* `([^`]+)`$", roadmap, re.MULTILINE)
    assert verify, "ROADMAP.md has no Tier-1 verify line"
    workflow = (ROOT / ".github" / "workflows" / "tests.yml").read_text()
    runs = re.findall(r"^\s*(?:-\s+)?run:\s*(.+?)\s*$", workflow, re.MULTILINE)
    assert runs.count(verify.group(1)) == 1, runs
