import json
import os
import runpy
import subprocess
import sys

import pytest

CHECKER = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir,
                       "scripts", "check_counts.py")
PINNED = runpy.run_path(CHECKER)["PINNED"]


def _check(workload, stdin):
    return subprocess.run([sys.executable, CHECKER, workload], input=stdin,
                          capture_output=True, text=True, timeout=10)


def _summary(counts):
    metrics = {name: {"value": value, "unit": "count"}
               for name, value in counts.items()}
    return "workload=hooks seed=1\n" + json.dumps(
        {"correct": True, "metrics": metrics}) + "\n"


@pytest.mark.parametrize("workload", sorted(PINNED))
def test_the_pinned_counts_pass_and_any_other_fails(workload):
    counts = {name: float(value) for name, value in PINNED[workload].items()}
    assert _check(workload, _summary(counts)).returncode == 0
    counts["scriptlet.tokens"] += 1
    result = _check(workload, _summary(counts))
    assert result.returncode == 1
    assert "scriptlet.tokens" in result.stderr


@pytest.mark.parametrize("stdin", ["", "not json\n",
                                   _summary({"scanner.find_calls": 36})])
def test_a_line_that_is_no_traced_summary_is_an_error(stdin):
    assert _check("scripts", stdin).returncode == 2


def test_an_unknown_workload_is_a_usage_error():
    assert _check("tree", _summary(PINNED["hooks"])).returncode == 2
