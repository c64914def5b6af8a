"""Command-line front end.

    textforge [-replace] [-o=PATH] [-e=CODE] [-style=NAME] FILE...

Without -replace every file is updated in place; generated output lands
after its snippet between output markers and nothing else moves. With
-replace the one input file is expanded (markup removed, bare output kept)
into PATH. -e runs CODE as a scriptlet before each file's first snippet;
-style overrides file-type detection.

A file named more than once (by symlinks, say) is processed once, under
its first name. Exit codes: 0 success, 1 any file failed to process
(remaining files are still attempted), 2 usage error. Diagnostics go to
stderr as FILE:LINE:COL: message, one line each.
"""
from __future__ import annotations

import gc
import os
import sys
from collections import namedtuple

from .core import LINE_ESCAPES, EngineError, UsageError
from .rewriter import process_file
from .styles import STYLES, detect_style

USAGE = "usage: textforge [-replace] [-o=PATH] [-e=CODE] [-style=NAME] FILE..."


_Options = namedtuple("Options", "files out_path init_code style")


def parse_args(argv: list[str]):
    """Parse command-line arguments into files, out_path, init_code and the
    `Style` that -style names (or None); raises UsageError on bad ones. The
    result has an `out_path` exactly when -replace was given."""
    files: list[str] = []
    out_path = init_code = style = None
    replace = False
    for arg in argv:
        if arg == "-replace":
            replace = True
        elif arg.startswith("-o="):
            out_path = arg[3:]
        elif arg.startswith("-e="):
            init_code = arg[3:]
        elif arg.startswith("-style="):
            style = STYLES.get(arg[7:])
            if style is None:
                known = ", ".join(sorted(STYLES))
                raise UsageError(f"unknown style '{arg[7:]}' (known: {known})")
        elif arg.startswith("-") and arg != "-":
            raise UsageError(f"unknown option: {arg}")
        else:
            files.append(arg)
    if not files:
        raise UsageError("no input files")
    if replace and not out_path:
        raise UsageError("-replace requires -o=PATH")
    if out_path is not None and not replace:
        raise UsageError("-o is only valid together with -replace")
    if out_path and len(files) > 1:
        raise UsageError("-o cannot be used with multiple input files")
    return _Options(files, out_path, init_code, style)


def run(opts) -> int:
    """Process every file once, under the first of its names; returns the
    process exit code."""
    # The cyclic collector is paused for the run, as Mercurial's util.nogc
    # does: compiled programs, $O pieces and scanner segments hold no
    # reference cycles, so reference counting frees them as each snippet and
    # file ends, and each collector pass would only rescan them.
    enabled = gc.isenabled()
    gc.disable()
    try:
        status = 0
        done = set()
        keys = [_identity(path) for path in opts.files]  # before any write
        for path, key in zip(opts.files, keys):
            if key in done:
                continue  # another name for a file this run has processed
            if key is not None:
                done.add(key)
            try:
                process_file(path, opts.style or detect_style(path),
                             out_path=opts.out_path, init_code=opts.init_code)
            except EngineError as exc:
                print(exc.diagnostic(), file=sys.stderr)
                status = 1
        return status
    finally:
        if enabled:
            gc.enable()


def _identity(path: str) -> tuple[int, int] | None:
    """(st_dev, st_ino) of `path`, symlinks followed, or None if it cannot be
    stat'ed. A write replaces the file, so it changes the inode."""
    try:
        info = os.stat(path)
    except OSError:
        return None
    return info.st_dev, info.st_ino


def main(argv: list[str] | None = None) -> int:
    args = sys.argv[1:] if argv is None else argv
    try:
        opts = parse_args(args)
    except UsageError as exc:
        print(f"textforge: {exc.message}".translate(LINE_ESCAPES),
              file=sys.stderr)
        print(USAGE, file=sys.stderr)
        return 2
    return run(opts)


if __name__ == "__main__":
    sys.exit(main())
