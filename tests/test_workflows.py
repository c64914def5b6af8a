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


def test_each_traced_benchmark_step_checks_the_pinned_counts():
    with open(os.path.join(WORKFLOWS, "tests.yml")) as fh:
        steps = yaml.safe_load(fh)["jobs"]["tier1"]["steps"]
    runs = [step["run"] for step in steps if "--trace 1" in step.get("run", "")]
    assert len(runs) == 2
    for run in runs:
        workload = run.split("--workload ")[1].split()[0]
        assert run.rstrip().endswith(
            "grep -F '\"correct\": true' | python3 scripts/check_counts.py "
            + workload), run
