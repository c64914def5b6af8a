#!/usr/bin/env python3
"""Check the counters of a traced benchmark run against a pinned table.

    python3 bench/run.py --workload hooks --seed 1 --seconds 2 --trace 1 \
        | python3 scripts/check_counts.py hooks

Reads a traced run's output from stdin and compares the counters in its
last line, the JSON summary, with the ones pinned below for the workload
at seed 1. The counts tell how much work each layer did, not how fast, so
they are the same on every machine and Python version; a change that means
to move one updates the table and says why. Exits 0 when every counter
matches, 1 when one differs, and 2 on a bad command line or a last line
that is not a traced summary.
"""
from __future__ import annotations

import json
import sys

# workload -> counter -> value in a traced run with --seed 1
PINNED = {
    "hooks": {
        "scanner.find_calls": 5712,
        "scanner.output_blocks": 1100,
        "scriptlet.tokens": 34269,
        "scriptlet.programs": 3306,
        "config.confs_run": 0,
        "rewriter.numbered_fences": 0,
        "rewriter.files_written": 4,
        "rewriter.bytes_out": 2410911,
    },
    "scripts": {
        "scanner.find_calls": 36,
        "scanner.output_blocks": 8,
        "scriptlet.tokens": 103341,
        "scriptlet.programs": 60,
        "config.confs_run": 36,
        "rewriter.numbered_fences": 12,
        "rewriter.files_written": 8,
        "rewriter.bytes_out": 1359325,
    },
}


def main(argv: list[str]) -> int:
    if len(argv) != 1 or argv[0] not in PINNED:
        print(f"usage: check_counts.py {{{','.join(PINNED)}}} < RUN_OUTPUT",
              file=sys.stderr)
        return 2
    lines = sys.stdin.read().splitlines()
    try:
        metrics = json.loads(lines[-1])["metrics"]
    except (IndexError, ValueError, KeyError, TypeError):
        print("check_counts: the last line is not a benchmark summary",
              file=sys.stderr)
        return 2
    status = 0
    for name, pinned in PINNED[argv[0]].items():
        got = metrics.get(name, {}).get("value")
        if got is None:
            print(f"check_counts: {name} missing; not a traced run?",
                  file=sys.stderr)
            return 2
        if got != pinned:
            print(f"check_counts: {argv[0]} {name} is {got}, pinned "
                  f"{pinned}", file=sys.stderr)
            status = 1
    if status == 0:
        print(f"check_counts: {argv[0]}: {len(PINNED[argv[0]])} counters "
              "match")
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
