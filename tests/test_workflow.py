"""The CI workflow is YAML that GitHub can load: a file it cannot parse runs no job at all."""

from pathlib import Path

import yaml

WORKFLOW = Path(__file__).resolve().parents[1] / ".github" / "workflows" / "tests.yml"


def test_every_step_runs_a_command_or_uses_an_action():
    # PyYAML reads the ``on:`` key as True, so only the steps are checked.
    steps = yaml.safe_load(WORKFLOW.read_text())["jobs"]["tests"]["steps"]
    assert steps
    for step in steps:
        assert isinstance(step.get("run"), str) or "uses" in step, step
