#!/usr/bin/env python3
"""Check that the differential scriptlet tests catch planted faults.

    python3 scripts/mutants.py

Each mutant is one exact text replacement in src/textforge/scriptlet.py, a
fault that the example tests alone do not catch. For each, src/ and tests/
are copied to a fresh temporary directory, the replacement is applied, and
tests/test_oracle.py runs against the copy. The unmutated copy runs first
and must pass. Exits 0 when every mutant is caught, 1 when one survives,
and 2 when the unmutated copy fails or a mutant's text is not found.
"""
from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TARGET = os.path.join("src", "textforge", "scriptlet.py")

# name -> (text in scriptlet.py, its replacement)
MUTANTS = {
    "a block runs only its first statement": (
        "            for stmt in stmts:\n                stmt(run)\n",
        "            for stmt in stmts[:1]:\n                stmt(run)\n"),
    "< and > become <= and >=": (
        "return a < b if less else a > b",
        "return a <= b if less else a >= b"),
    "strip_suffix strips every occurrence": (
        "return stringify(value).removesuffix(stringify(suffix))",
        'return stringify(value).replace(stringify(suffix), "")'),
    "the loop budget allows one more iteration": (
        "if run.loops > MAX_LOOP_ITERATIONS:",
        "if run.loops > MAX_LOOP_ITERATIONS + 1:"),
}


def run_oracle(old: str | None, new: str | None) -> bool:
    """Whether tests/test_oracle.py passes on a copy with `old` replaced by
    `new` (no replacement when `old` is None)."""
    with tempfile.TemporaryDirectory(prefix="textforge-mutant-") as tmp:
        for part in ("src", "tests"):
            shutil.copytree(os.path.join(ROOT, part), os.path.join(tmp, part),
                            ignore=shutil.ignore_patterns("__pycache__"))
        if old is not None:
            path = os.path.join(tmp, TARGET)
            with open(path, encoding="utf-8") as fh:
                text = fh.read()
            if text.count(old) != 1:
                print(f"mutants: expected one {old!r} in {TARGET}, found "
                      f"{text.count(old)}", file=sys.stderr)
                sys.exit(2)
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text.replace(old, new))
        env = dict(os.environ, PYTHONPATH=os.path.join(tmp, "src"))
        result = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-x", "-p",
             "no:cacheprovider", os.path.join("tests", "test_oracle.py")],
            cwd=tmp, env=env, stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL)
        return result.returncode == 0


def main() -> int:
    started = time.monotonic()
    if not run_oracle(None, None):
        print("mutants: tests/test_oracle.py fails on the unmutated source")
        return 2
    survivors = []
    for name, (old, new) in MUTANTS.items():
        caught = not run_oracle(old, new)
        print(f"{'caught' if caught else 'SURVIVED'}: {name}")
        if not caught:
            survivors.append(name)
    print(f"mutants: {len(MUTANTS) - len(survivors)} of {len(MUTANTS)} caught "
          f"in {time.monotonic() - started:.1f} s")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
