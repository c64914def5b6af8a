import glob
import os

import pytest

yaml = pytest.importorskip("yaml")

WORKFLOWS = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir,
                         ".github", "workflows")


def test_every_workflow_loads_and_each_run_step_is_a_string():
    # An unquoted `run:` line holding ": " is not valid YAML, and a CI
    # service rejects the whole file without running any step.
    paths = sorted(glob.glob(os.path.join(WORKFLOWS, "*.yml")))
    assert paths
    for path in paths:
        with open(path) as fh:
            workflow = yaml.safe_load(fh)
        for job in workflow["jobs"].values():
            # Without a limit a runaway scriptlet or regex holds a runner
            # for the service's default of six hours.
            assert isinstance(job.get("timeout-minutes"), int), (path, job)
            for step in job["steps"]:
                assert isinstance(step.get("run", ""), str), (path, step)
