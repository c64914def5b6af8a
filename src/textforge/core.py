"""Domain types shared by the whole engine.

The engine walks a text file looking for *hooks* (snippet delimiters or
regular expressions), evaluates embedded scriptlets against a per-file
`EngineState`, and either appends their output in place (update) or
substitutes it for the markup (replace, when an output path is given).
An `EngineError` carries `at`, an offset into the source that raised it
(the file text, a snippet's code, `-e` code or a conf). `EngineError.locate`
is the one place that turns it into a line and column: `rewriter.process_file`
calls it with the file text or the `-e` code, and `config` with a conf's.
The hook and delimiter types are plain `namedtuple`s that check nothing;
the scriptlet builtins that build them from outside input do the checking.
`read_text` is the one way a file's bytes become the text textforge runs,
FILE's and each conf's alike.
"""
from __future__ import annotations

import os
import stat
from collections import namedtuple


# Line breaks as their two-character escapes, so a message stays one line.
LINE_ESCAPES = str.maketrans({"\r": "\\r", "\n": "\\n"})


class EngineError(Exception):
    """Base for all engine errors; knows how to render a diagnostic.

    `at` is the offset of the error in the source that raised it, or None
    when no place in a source is at fault (the diagnostic then reads
    FILE:0:0). `file` is None, and `line` and `col` 0, until `locate`,
    unless `file` is given.
    """

    def __init__(self, message: str, *, at: int | None = None,
                 file: str | None = None):
        super().__init__(message)
        self.message = message
        self.at = at
        self.file = file
        self.line = 0
        self.col = 0

    def locate(self, file: str, source: str) -> None:
        """Name `file` and turn `at`, an offset into `source`, into a line
        and column. An error that already names a file (one raised in a
        conf) keeps it."""
        if self.file is not None:
            return
        self.file = file
        if self.at is not None:
            self.line, self.col = line_col(source, self.at)

    def diagnostic(self) -> str:
        """FILE:LINE:COL: message, on one line."""
        return (f"{self.file or '<input>'}:{self.line}:{self.col}: "
                f"{self.message}").translate(LINE_ESCAPES)


class ParseError(EngineError):
    """Scriptlet source that does not lex or parse, or snippet or output
    markup whose end is missing."""


class EvalError(EngineError):
    """Scriptlet runtime failure: undefined variable, unknown function, bad
    arity, a budget run out, or the file's deadline passed."""


class UsageError(EngineError):
    """Bad command line or unusable option combination."""


# Snippet hook: code sits between `begin` and the first following `end`.
BeginEnd = namedtuple("BeginEnd", "begin end")

# Regex hook: `regex` is a compiled `re.Pattern`. The scanner keeps a match
# as its `re.Match` and yields it as a `str`: its text in update mode, and in
# replace mode `template` with $1..$9 filled from the match's groups.
Pattern = namedtuple("Pattern", "regex template")

Hook = BeginEnd | Pattern

# Output-block delimiters: a block's begin marker is b1 + infix + b2 and its
# end marker e1 + infix + e2, infix being "" or the digits choose_infix picks.
OutDelims = namedtuple("OutDelims", "b1 b2 e1 e2")


# A named bundle of hooks and conventions for one host language. Entries of
# `extensions` starting with "." match file-name suffixes; anything else must
# equal the basename exactly (e.g. "Makefile").
Style = namedtuple("Style", "name hooks line_comment out_delims "
                   "indent_adjust extensions", defaults=(False, ()))


# Scriptlet values are plain Python: str, int, bool, or list of values.
Value = str | int | bool | list


class EngineState:
    """Mutable state of one file's run, built from its path and style.

    `style` is the style in effect, whose `line_comment` and `indent_adjust`
    apply; only `set_style()` replaces it, and with it the `hooks` list and
    `out_delims`. Snippets may append to `hooks`, which the scan relies on
    never shrinking, and retarget `out_delims`; all later scanning sees it.
    `base_dir` is where `glob()` looks: the file's directory, or a conf's
    while that conf runs. `listings` maps each directory `glob()` has read
    to its sorted entries, and `globs` each `(directory, pattern)` it has
    matched to the matching names.
    """

    __slots__ = ("file_path", "style", "hooks", "out_delims", "scope",
                 "conf_loaded", "base_dir", "listings", "globs")

    def __init__(self, file_path: str, style: Style):
        self.file_path = file_path
        self.apply_style(style)
        self.scope: dict[str, Value] = {}
        self.conf_loaded = False
        self.base_dir = os.path.dirname(os.path.abspath(file_path))
        self.listings: dict[str, list[str]] = {}
        self.globs: dict[tuple[str, str], list[str]] = {}

    def apply_style(self, style: Style) -> None:
        """Take over the style's settings; `style` itself is never mutated."""
        self.style = style
        self.hooks = list(style.hooks)
        self.out_delims = style.out_delims


def line_col(text: str, offset: int) -> tuple[int, int]:
    """1-based (line, column) of `offset` in `text`."""
    line = text.count("\n", 0, offset) + 1
    start = text.rfind("\n", 0, offset) + 1
    return line, offset - start + 1


def read_regular(path: str) -> tuple[bytes, os.stat_result]:
    """`path`'s bytes and its stat result as it was opened, before any byte
    was read, so an edit made during the read shows as a change. Anything
    but a regular file is refused unread; the open does not block, so a FIFO
    cannot hang the run."""
    st = None

    def opener(name: str, flags: int) -> int:
        nonlocal st
        fd = os.open(name, flags | getattr(os, "O_NONBLOCK", 0))
        try:
            st = os.fstat(fd)
            if stat.S_ISREG(st.st_mode):
                return fd
            raise EngineError(f"refusing to read '{path}': not a regular file")
        except BaseException:
            os.close(fd)
            raise

    with open(path, "rb", opener=opener) as fh:
        return fh.read(), st


def read_text(path: str) -> tuple[str, bool, bytes, os.stat_result]:
    """`path`'s text, whether it was all CRLF, and `read_regular`'s bytes and
    stat result. The bytes are decoded as UTF-8, an undecodable one kept as
    a lone surrogate; in a file whose every newline is CRLF each becomes LF,
    and any other file is decoded byte for byte."""
    data, st = read_regular(path)
    text = data.decode("utf-8", "surrogateescape")
    # A one-character search is cheap; counting is not, so it comes last.
    crlf = "\r" in text and 0 < text.count("\r\n") == text.count("\n")
    if crlf:
        text = text.replace("\r\n", "\n")
    return text, crlf, data, st
