#!/usr/bin/env python3
"""Self-tests of the benchmark harness.

    python3 bench/selftest.py

Run from the root of a source checkout. Checks that the generator is a pure
function of the seed, that a single wrong expected byte shows up as a failed
operation, and that run.py refuses to run without textforge's sources.
Exits 0 when every check passes.
"""
from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile

import gen
import run


def check_determinism() -> None:
    for name in gen.WORKLOADS:
        first, again, other = gen.build(name, 7), gen.build(name, 7), gen.build(name, 8)
        assert first == again, f"{name}: seed 7 gives different bytes on a second build"
        assert first.files != other.files, f"{name}: seeds 7 and 8 give the same inputs"
        assert first.expect_update != other.expect_update, f"{name}: same update bytes"
        assert first.expect_replace != other.expect_replace, f"{name}: same replace bytes"
        half = gen.build(name, 7, run.HALF)
        assert (sum(map(len, half.files.values()))
                < sum(map(len, first.files.values()))), f"{name}: half size is not smaller"


def _fail_ratio(work: str, tag: str, wl: gen.Workload) -> tuple[int, int]:
    ops = run.Ops()
    runner = run.Runner(work)
    run.Iteration(runner, wl, tag, ops).run(commute=True)
    return ops.failed, ops.attempted


def _flip_byte(data: bytes, at: int) -> bytes:
    return data[:at] + bytes([data[at] ^ 1]) + data[at + 1:]


def check_oracle_catches_corruption(work: str) -> None:
    wl = gen.build("scripts", 3, 0.1)
    failed, attempted = _fail_ratio(work, "clean", wl)
    assert attempted == 4 * len(wl.targets), attempted
    assert failed == 0, f"clean run: {failed}/{attempted} failed"

    victim = wl.targets[1]
    good_update = wl.expect_update[victim]
    wl.expect_update[victim] = _flip_byte(good_update, len(good_update) // 2)
    failed, attempted = _fail_ratio(work, "bad-update", wl)
    # The update and the rerun of that one file now disagree with the oracle.
    assert failed == 2, f"corrupt update byte: {failed}/{attempted} failed"

    wl.expect_update[victim] = good_update
    wl.expect_replace[victim] = _flip_byte(wl.expect_replace[victim], 0)
    failed, attempted = _fail_ratio(work, "bad-replace", wl)
    # replace(x) and replace(update(x)) of that file.
    assert failed == 2, f"corrupt replace byte: {failed}/{attempted} failed"


def check_refuses_without_sources(work: str) -> None:
    bare = os.path.join(work, "bare")
    shutil.copytree(run.HERE, os.path.join(bare, "bench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "tree", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0, "run.py succeeded without textforge sources"
    assert "{" not in proc.stdout, f"run.py printed a result: {proc.stdout!r}"


def main() -> int:
    os.makedirs(run.WORK, exist_ok=True)
    work = tempfile.mkdtemp(prefix="selftest-", dir=run.WORK)
    try:
        for check in (check_determinism,
                      lambda: check_oracle_catches_corruption(work),
                      lambda: check_refuses_without_sources(work)):
            check()
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(run.WORK)
        except OSError:
            pass
    print("bench selftest: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
