"""Command-line front end.

    textforge [-replace] [-o=PATH] [-e=CODE] [-style=NAME] FILE...

Without -replace every file is updated in place; generated output lands
after its snippet between output markers and nothing else moves. With
-replace the one input file is expanded (markup removed, bare output kept)
into PATH. -e runs CODE as a scriptlet before each file's first snippet;
-style overrides file-type detection.

Exit codes: 0 success, 1 any file failed to process (remaining files are
still attempted), 2 usage error. Diagnostics go to stderr as
FILE:LINE:COL: message.
"""
from __future__ import annotations

import gc
import sys

from .core import EngineError, UsageError
from .rewriter import process_file
from .styles import STYLES, detect_style

USAGE = "usage: textforge [-replace] [-o=PATH] [-e=CODE] [-style=NAME] FILE..."


class CliOptions:
    __slots__ = ("out_path", "init_code", "style_override", "files")

    def __init__(self):
        self.out_path: str | None = None
        self.init_code: str | None = None
        self.style_override: str | None = None
        self.files: list[str] = []


def parse_args(argv: list[str]) -> CliOptions:
    """Parse command-line arguments; raises UsageError on bad invocations.
    The result has an `out_path` exactly when -replace was given."""
    opts = CliOptions()
    replace = False
    for arg in argv:
        if arg == "-replace":
            replace = True
        elif arg.startswith("-o="):
            opts.out_path = arg[3:]
        elif arg.startswith("-e="):
            opts.init_code = arg[3:]
        elif arg.startswith("-style="):
            opts.style_override = arg[7:]
        elif arg.startswith("-") and arg != "-":
            raise UsageError(f"unknown option: {arg}")
        else:
            opts.files.append(arg)
    if not opts.files:
        raise UsageError("no input files")
    if replace and not opts.out_path:
        raise UsageError("-replace requires -o=PATH")
    if opts.out_path is not None and not replace:
        raise UsageError("-o is only valid together with -replace")
    if opts.out_path and len(opts.files) > 1:
        raise UsageError("-o cannot be used with multiple input files")
    return opts


def run(opts: CliOptions) -> int:
    """Process every file; returns the process exit code."""
    override = None
    if opts.style_override is not None:
        override = STYLES.get(opts.style_override)
        if override is None:
            known = ", ".join(sorted(STYLES))
            print(f"textforge: unknown style '{opts.style_override}' "
                  f"(known: {known})", file=sys.stderr)
            return 2

    # The cyclic collector is paused for the run, as Mercurial's util.nogc
    # does: compiled programs, $O pieces and scanner segments hold no
    # reference cycles, so reference counting frees them as each snippet and
    # file ends, and each collector pass would only rescan them.
    enabled = gc.isenabled()
    gc.disable()
    try:
        status = 0
        for path in opts.files:
            try:
                process_file(path, override or detect_style(path),
                             out_path=opts.out_path, init_code=opts.init_code)
            except EngineError as exc:
                print(exc.diagnostic(), file=sys.stderr)
                status = 1
            except OSError as exc:
                print(f"{path}:0:0: {exc}", file=sys.stderr)
                status = 1
        return status
    finally:
        if enabled:
            gc.enable()


def main(argv: list[str] | None = None) -> int:
    args = sys.argv[1:] if argv is None else argv
    try:
        opts = parse_args(args)
    except UsageError as exc:
        print(f"textforge: {exc.message}", file=sys.stderr)
        print(USAGE, file=sys.stderr)
        return 2
    return run(opts)


if __name__ == "__main__":
    sys.exit(main())
