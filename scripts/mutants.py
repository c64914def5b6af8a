#!/usr/bin/env python3
"""Check that the reference tests catch planted faults.

    python3 scripts/mutants.py

Each mutant is one exact text replacement in a module under src/textforge/,
a fault that the example tests alone do not catch, and names the test module
that must catch it: the differential scriptlet oracle, or a property that
holds a fast path to its reference. For each, src/ and tests/ are copied to
a fresh temporary directory, the replacement is applied, and the mutant's
test module runs against the copy. The unmutated copy runs every named test
module first and must pass. Exits 0 when every mutant is caught, 1 when one
survives, and 2 when the unmutated copy fails or a mutant's text is not
found.
"""
from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# name -> (module in src/textforge, test module in tests, text in the
# module, its replacement)
MUTANTS = {
    "a block runs only its first statement": (
        "scriptlet.py", "test_oracle.py",
        "            for stmt in stmts:\n                stmt(run)\n",
        "            for stmt in stmts[:1]:\n                stmt(run)\n"),
    "< and > become <= and >=": (
        "scriptlet.py", "test_oracle.py",
        "return a < b if less else a > b",
        "return a <= b if less else a >= b"),
    "strip_suffix strips every occurrence": (
        "scriptlet.py", "test_oracle.py",
        "return stringify(value).removesuffix(stringify(suffix))",
        'return stringify(value).replace(stringify(suffix), "")'),
    "the loop budget allows one more iteration": (
        "scriptlet.py", "test_oracle.py",
        "if run.loops > MAX_LOOP_ITERATIONS:",
        "if run.loops > MAX_LOOP_ITERATIONS + 1:"),
    "choose_infix's check of the empty infix skips the tail": (
        "rewriter.py", "test_rewriter.py",
        "or marker.rstrip(\"\\n\") in output) and _clears_tail(output, marker):",
        "or marker.rstrip(\"\\n\") in output):"),
    "_search returns an empty match": (
        "scanner.py", "test_scanner.py",
        "if end > start:",
        "if end >= start:"),
    "the template join takes capture N + 1 for $N": (
        "rewriter.py", "test_rewriter.py",
        "i = int(parts[k]) - 1",
        "i = int(parts[k])"),
}


def run_tests(tests: list[str], module: str | None = None,
              old: str | None = None, new: str | None = None) -> bool:
    """Whether the test modules `tests` pass on a copy with `old` replaced
    by `new` in src/textforge/`module` (no replacement when `old` is None)."""
    with tempfile.TemporaryDirectory(prefix="textforge-mutant-") as tmp:
        for part in ("src", "tests"):
            shutil.copytree(os.path.join(ROOT, part), os.path.join(tmp, part),
                            ignore=shutil.ignore_patterns("__pycache__"))
        if old is not None:
            path = os.path.join(tmp, "src", "textforge", module)
            with open(path, encoding="utf-8") as fh:
                text = fh.read()
            if text.count(old) != 1:
                print(f"mutants: expected one {old!r} in {module}, found "
                      f"{text.count(old)}", file=sys.stderr)
                sys.exit(2)
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text.replace(old, new))
        env = dict(os.environ, PYTHONPATH=os.path.join(tmp, "src"))
        result = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-x", "-p",
             "no:cacheprovider"] + [os.path.join("tests", t) for t in tests],
            cwd=tmp, env=env, stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL)
        return result.returncode == 0


def main() -> int:
    started = time.monotonic()
    tests = sorted({entry[1] for entry in MUTANTS.values()})
    if not run_tests(tests):
        print(f"mutants: {', '.join(tests)} fail on the unmutated source")
        return 2
    survivors = []
    for name, (module, test, old, new) in MUTANTS.items():
        caught = not run_tests([test], module, old, new)
        print(f"{'caught' if caught else 'SURVIVED'}: {name}")
        if not caught:
            survivors.append(name)
    print(f"mutants: {len(MUTANTS) - len(survivors)} of {len(MUTANTS)} caught "
          f"in {time.monotonic() - started:.1f} s")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
