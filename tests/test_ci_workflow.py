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


def test_every_readme_example_config_has_a_workflow_step():
    # each "Example config (`X.json`)" block of README.md is cut out by a step's own
    # pattern and run by `degenheat X` on the file that step wrote
    readme = (ROOT / "README.md").read_text()
    examples = re.findall(r"Example config \(`(\w+)\.json`\):\s*```json\n(.*?)```", readme, re.S)
    assert examples, "README.md has no example config"
    workflow = (ROOT / ".github" / "workflows" / "tests.yml").read_text()
    steps = re.split(r"\n\s*- ", workflow)
    for name, body in examples:
        config = f'"$RUNNER_TEMP/{name}.json"'
        command = rf"^\s*degenheat {name} --config {re.escape(config)}"
        runs = [s for s in steps if re.search(command, s, re.M)]
        assert len(runs) == 1, f"no single workflow step runs degenheat {name} on its example"
        assert f"python - {config}" in runs[0], name
        pattern = re.search(r're\.search\(r"(.+?)", readme, re\.S\)', runs[0])
        assert pattern, f"the degenheat {name} step cuts no example out of README.md"
        cut = re.search(pattern.group(1), readme, re.S)
        assert cut and cut.group(1) == body, f"the degenheat {name} step misses its example"
