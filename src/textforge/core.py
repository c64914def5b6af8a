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
"""
from __future__ import annotations

import os
from collections import namedtuple


class EngineError(Exception):
    """Base for all engine errors; knows how to render a diagnostic.

    `at` is the offset of the error in the source that raised it, or None
    when no place in a source is at fault (the diagnostic then reads
    FILE:0:0). `file` stays None, and `line` and `col` 0, until `locate`.
    """

    def __init__(self, message: str, *, at: int | None = None):
        super().__init__(message)
        self.message = message
        self.at = at
        self.file: str | None = None
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
        return f"{self.file or '<input>'}:{self.line}:{self.col}: {self.message}"


class ParseError(EngineError):
    """Scriptlet source that does not lex or parse."""


class EvalError(EngineError):
    """Scriptlet runtime failure: undefined variable, unknown function, bad arity."""


class UnterminatedSnippetError(EngineError):
    """A begin delimiter matched but no end delimiter follows."""


class UnterminatedOutputError(EngineError):
    """An output-block begin marker matched but its end marker is missing."""


class UsageError(EngineError):
    """Bad command line or unusable option combination."""


# Snippet hook: code sits between `begin` and the first following `end`.
BeginEnd = namedtuple("BeginEnd", "begin end")

# Regex hook: `regex` is a compiled `re.Pattern`, and in replace mode a match
# becomes `template` with $1..$9 substituted from capture groups. A compiled
# pattern never equals a str, so a Pattern never equals a BeginEnd and the
# two never share a scanner cache entry.
Pattern = namedtuple("Pattern", "regex template")

Hook = BeginEnd | Pattern


class OutDelims(namedtuple("OutDelims", "b1 b2 e1 e2")):
    """Output-block delimiters. The full begin marker is b1+infix+b2 and the
    full end marker is e1+infix+e2, where infix is "" or a run of decimal
    digits chosen to avoid collisions with the output text."""

    __slots__ = ()

    def begin(self, infix: str = "") -> str:
        return self.b1 + infix + self.b2

    def end(self, infix: str = "") -> str:
        return self.e1 + infix + self.e2


# A named bundle of hooks and conventions for one host language. Entries of
# `extensions` starting with "." match file-name suffixes; anything else must
# equal the basename exactly (e.g. "Makefile").
Style = namedtuple("Style", "name hooks line_comment out_delims "
                   "indent_adjust extensions", defaults=(False, ()))


# Scriptlet values are plain Python: str, int, bool, or list of values.
Value = str | int | bool | list


class EngineState:
    """Mutable state of one file's run, built from its path and style.

    Snippets may retarget `hooks`, `out_delims`, `line_comment` and
    `indent_adjust` mid-file; mutations affect all subsequent scanning.
    `base_dir` is where `glob()` looks: the file's directory, or a conf's
    while that conf runs. `listings` maps each directory `glob()` has read
    to its sorted entries, and `globs` each `(directory, pattern)` it has
    matched to the matching names.
    """

    __slots__ = ("file_path", "hooks", "out_delims", "line_comment",
                 "indent_adjust", "scope", "conf_loaded", "base_dir",
                 "listings", "globs")

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
        self.hooks = list(style.hooks)
        self.out_delims = style.out_delims
        self.line_comment = style.line_comment
        self.indent_adjust = style.indent_adjust


def line_col(text: str, offset: int) -> tuple[int, int]:
    """1-based (line, column) of `offset` in `text`."""
    line = text.count("\n", 0, offset) + 1
    start = text.rfind("\n", 0, offset) + 1
    return line, offset - start + 1
