#!/usr/bin/env python3
"""Check that the reference tests catch planted faults.

    python3 scripts/mutants.py

Each mutant is one exact text replacement in a module under src/textforge/,
a fault in a fast path or an offset mapping that the goldens alone do not
catch, and names the test module that must catch it: the differential
scriptlet oracle, a property that holds a fast path to its reference, or a
test aimed at the boundary the fault moves. For each, src/ and tests/ are copied to
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
        "scanner.py", "test_scanner.py",
        "i = int(parts[k]) - 1",
        "i = int(parts[k])"),
    "the snippet error mapping splits one line too far": (
        "rewriter.py", "test_rewriter.py",
        'len(seg.code.rsplit("\\n", after)[0])',
        'len(seg.code.rsplit("\\n", after + 1)[0])'),
    "the end reuse ignores the end delimiter's length": (
        "scanner.py", "test_scanner.py",
        "code <= last[1] - len(hook.end)",
        "code <= last[1]"),
    "_run_snippet reads the fence after the snippet runs": (
        "rewriter.py", "test_rewriter.py",
        "    if style.indent_adjust and seg.indent:\n",
        "    delims, style = state.out_delims, state.style\n"
        "    if style.indent_adjust and seg.indent:\n"),
    "find_next_match keeps the later hook on a full tie": (
        "scanner.py", "test_scanner.py",
        "end < best[2]",
        "end <= best[2]"),
    "the regular-file refusal is skipped": (
        "core.py", "test_cli.py",
        "if stat.S_ISREG(os.fstat(fd).st_mode):",
        "if True:"),
    "the scan keeps its cache when set_style() drops the hooks": (
        "scanner.py", "test_scanner.py",
        "hooks, found = state.hooks, {}",
        "hooks = state.hooks"),
    "the style lookup takes the suffix from the first dot": (
        "styles.py", "test_styles.py",
        'base.rpartition(".")',
        'base.partition(".")'),
    "diagnostic() keeps line breaks in FILE and the message": (
        "core.py", "test_cli.py",
        'f"{self.message}").translate(LINE_ESCAPES)',
        'f"{self.message}")'),
    "a file named twice runs under each name": (
        "cli.py", "test_cli.py",
        "if key in done:",
        "if False:"),
    "iter_segments yields a regex match's text in replace mode too": (
        "scanner.py", "test_scanner.py",
        "elif replace:",
        "elif False:"),
    "a target edited while the file is computed is written over": (
        "rewriter.py", "test_cli.py",
        "if _version(now) != _version(current_stat):",
        "if False:"),
    "the deadline is disarmed after the write": (
        "rewriter.py", "test_cli.py",
        "        return write_if_changed(target, new_text, current, current_stat)",
        "            return write_if_changed(target, new_text, current, "
        "current_stat)"),
    "a conf is decoded without the newline rule": (
        "config.py", "test_config.py",
        "source = read_text(path)[0]",
        'source = read_text(path)[2].decode("utf-8", "surrogateescape")'),
    "an -o target that is the input is not refused": (
        "rewriter.py", "test_cli.py",
        "if current_stat is not None and os.path.samestat(current_stat, st):",
        "if False:"),
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
        began = time.monotonic()
        caught = not run_tests([test], module, old, new)
        print(f"{'caught' if caught else 'SURVIVED'}: {name} "
              f"({time.monotonic() - began:.1f} s)")
        if not caught:
            survivors.append(name)
    print(f"mutants: {len(MUTANTS) - len(survivors)} of {len(MUTANTS)} caught "
          f"in {time.monotonic() - started:.1f} s")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
