#!/usr/bin/env python3
"""Check that the reference tests catch planted faults.

    python3 scripts/mutants.py

Each mutant is one exact text replacement in a module under src/textforge/,
a fault in a fast path or an offset mapping that the goldens alone do not
catch, and names the test module that must catch it: the differential
scriptlet oracle, a property that holds a fast path to its reference, or a
test aimed at the boundary the fault moves. For each, src/, tests/ and
pyproject.toml (which names the console script) are copied to a fresh
temporary directory, the replacement is applied, and the mutant's
test module runs against the copy. The unmutated copy runs every named test
module first and must pass. A test run that takes longer than
`TIMEOUT_S` is stopped and counts as failed, so a mutant that loops forever
is reported as caught (timed out). Exits 0 when every mutant is caught, 1
when one survives, and 2 when the unmutated copy fails or times out or a
mutant's text is not found.
"""
from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TIMEOUT_S = 120  # for one pytest run

# name -> (module in src/textforge, test module in tests, text in the
# module, its replacement)
MUTANTS = {
    "a block runs only its first statement": (
        "scriptlet.py", "test_oracle.py",
        "            for stmt in stmts:\n                stmt(run)\n",
        "            for stmt in stmts[:1]:\n                stmt(run)\n"),
    "the assignment lookahead reads the far end of the token stack": (
        "scriptlet.py", "test_oracle.py",
        'self.rest[-1][0] == "="',
        'self.rest[0][0] == "="'),
    "primary's keyword check is skipped": (
        "scriptlet.py", "test_oracle.py",
        "if kind in KEYWORDS:",
        "if False:"),
    "a name stops at its first underscore": (
        "scriptlet.py", "test_oracle.py",
        'while j < n and ((c := source[j]).isalnum() or c == "_"):',
        "while j < n and (c := source[j]).isalnum():"),
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
    "the template fill takes group N + 1 for $N": (
        "scanner.py", "test_scanner.py",
        "n = int(ref[1])",
        "n = int(ref[1]) + 1"),
    "the template fill reads the last group as empty": (
        "scanner.py", "test_scanner.py",
        "if n <= m.re.groups else",
        "if n < m.re.groups else"),
    "the snippet error mapping splits one line too far": (
        "rewriter.py", "test_rewriter.py",
        'len(seg.code.rsplit("\\n", after)[0])',
        'len(seg.code.rsplit("\\n", after + 1)[0])'),
    "the end reuse ignores the end delimiter's length": (
        "scanner.py", "test_scanner.py",
        "code <= last_end - len(hook.end)",
        "code <= last_end"),
    "_run_snippet reads the fence after the snippet runs": (
        "rewriter.py", "test_rewriter.py",
        "    if style.indent_adjust and seg.indent:\n",
        "    delims, style = state.out_delims, state.style\n"
        "    if style.indent_adjust and seg.indent:\n"),
    "a never-terminated begin ends at the end of the text": (
        "scanner.py", "test_scanner.py",
        "else _NEVER), None",
        "else len(text)), None"),
    "find_next_match keeps the later hook on a full tie": (
        "scanner.py", "test_scanner.py",
        "heappush(heap, (start, end, i, m))",
        "heappush(heap, (start, end, -i, m))"),
    "only the top entry is searched again": (
        "scanner.py", "test_scanner.py",
        "while heap[0][0] < from_:",
        "if heap[0][0] < from_:"),
    "the regular-file refusal is skipped": (
        "core.py", "test_cli.py",
        "if stat.S_ISREG(st.st_mode):",
        "if True:"),
    "the scan keeps its heap when set_style() drops the hooks": (
        "scanner.py", "test_scanner.py",
        "hooks, found = state.hooks, []",
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
    "replace keeps the indent of a snippet that starts its line": (
        "scanner.py", "test_scanner.py",
        "stop -= len(indent)",
        "stop -= 0"),
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
    "an interrupt during the write leaves the temp file": (
        "rewriter.py", "test_faults.py",
        "    except BaseException as exc:",
        "    except Exception as exc:"),
    "the read's file is left to the collector": (
        "core.py", "test_faults.py",
        "with fh:",
        "if True:"),
    "a directory is refused as an OS error": (
        "core.py", "test_cli.py",
        "    except IsADirectoryError:\n        pass\n",
        "    finally:\n        pass\n"),
    "the temp file is never closed": (
        "rewriter.py", "test_faults.py",
        "        with fh:\n            fh.write(data)\n",
        "        fh.write(data)\n"),
}


def run_tests(tests: list[str], module: str | None = None,
              old: str | None = None, new: str | None = None) -> str:
    """"passed", "failed" or "timed out": how the test modules `tests` run
    on a copy with `old` replaced by `new` in src/textforge/`module` (no
    replacement when `old` is None)."""
    with tempfile.TemporaryDirectory(prefix="textforge-mutant-") as tmp:
        for part in ("src", "tests"):
            shutil.copytree(os.path.join(ROOT, part), os.path.join(tmp, part),
                            ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(os.path.join(ROOT, "pyproject.toml"), tmp)
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
        try:
            result = subprocess.run(
                [sys.executable, "-m", "pytest", "-q", "-x", "-p",
                 "no:cacheprovider"]
                + [os.path.join("tests", t) for t in tests],
                cwd=tmp, env=env, stdout=subprocess.DEVNULL,
                stderr=subprocess.DEVNULL, timeout=TIMEOUT_S)
        except subprocess.TimeoutExpired:
            return "timed out"
        return "passed" if result.returncode == 0 else "failed"


def main() -> int:
    started = time.monotonic()
    tests = sorted({entry[1] for entry in MUTANTS.values()})
    outcome = run_tests(tests)
    if outcome != "passed":
        print(f"mutants: {', '.join(tests)} {outcome} on the unmutated source")
        return 2
    survivors = []
    for name, (module, test, old, new) in MUTANTS.items():
        began = time.monotonic()
        outcome = run_tests([test], module, old, new)
        verdict = {"passed": "SURVIVED", "failed": "caught",
                   "timed out": "caught (timed out)"}[outcome]
        print(f"{verdict}: {name} ({time.monotonic() - began:.1f} s)")
        if outcome == "passed":
            survivors.append(name)
    print(f"mutants: {len(MUTANTS) - len(survivors)} of {len(MUTANTS)} caught "
          f"in {time.monotonic() - started:.1f} s")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
