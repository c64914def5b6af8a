"""Domain types shared by the whole engine.

The engine walks a text file looking for *hooks* (snippet delimiters or
regular expressions), evaluates embedded scriptlets against a
per-file state, and either appends their output in place (update mode) or
substitutes it for the markup (replace mode).
"""
from __future__ import annotations

import os
import re
from dataclasses import dataclass, field
from enum import Enum


class Mode(Enum):
    """Processing mode for one run over a file."""

    UPDATE = "update"
    REPLACE = "replace"


class EngineError(Exception):
    """Base for all engine errors; knows how to render a diagnostic."""

    def __init__(self, message: str, *, file: str | None = None,
                 line: int = 0, col: int = 0):
        super().__init__(message)
        self.message = message
        self.file = file
        self.line = line
        self.col = col

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


@dataclass(frozen=True, slots=True)
class BeginEnd:
    """Snippet hook: code sits between `begin` and the first following `end`."""

    begin: str
    end: str

    def __post_init__(self):
        if not self.begin or not self.end:
            raise ValueError("hook delimiters must be non-empty")


@dataclass(frozen=True, slots=True)
class Pattern:
    """Regex hook; in replace mode the match becomes `template` with $1..$9
    substituted from capture groups."""

    regex: str
    template: str

    def __post_init__(self):
        if not self.regex:
            raise ValueError("pattern hook regex must be non-empty")
        re.compile(self.regex)  # validate eagerly; re caches the compile


Hook = BeginEnd | Pattern


@dataclass(frozen=True, slots=True)
class OutDelims:
    """Output-block delimiters. The full begin marker is b1+infix+b2 and the
    full end marker is e1+infix+e2, where infix is "" or a run of decimal
    digits chosen to avoid collisions with the output text."""

    b1: str
    b2: str
    e1: str
    e2: str

    def begin(self, infix: str = "") -> str:
        return self.b1 + infix + self.b2

    def end(self, infix: str = "") -> str:
        return self.e1 + infix + self.e2


@dataclass(frozen=True, slots=True)
class Style:
    """A named bundle of hooks and conventions for one host language."""

    name: str
    hooks: tuple[Hook, ...]
    line_comment: str | None
    out_delims: OutDelims
    indent_adjust: bool = False
    # Entries starting with "." match file-name suffixes; anything else must
    # equal the basename exactly (e.g. "Makefile").
    extensions: tuple[str, ...] = ()


# Scriptlet values are plain Python: str, int, bool, or list of values.
Value = str | int | bool | list


@dataclass(slots=True)
class EngineState:
    """Mutable per-file state threaded through scanning and evaluation.

    Snippets may retarget `hooks`, `out_delims`, `line_comment` and
    `indent_adjust` mid-file; mutations affect all subsequent scanning.
    `out_buffer` is the scriptlet accumulator `$O`, reset before each snippet.
    `listings` maps each directory `glob()` has read to its sorted entries.
    """

    mode: Mode
    file_path: str
    hooks: list[Hook]
    out_delims: OutDelims
    line_comment: str | None
    indent_adjust: bool
    scope: dict[str, Value] = field(default_factory=dict)
    out_buffer: str = ""
    conf_loaded: bool = False
    base_dir: str = ""
    file_mtime: float | None = None
    listings: dict[str, list[str]] = field(default_factory=dict)


def new_engine_state(path: str, mode: Mode, style: Style) -> EngineState:
    """Build a fresh state for one file. Pure construction: the file's
    existence is the caller's concern and `style` is never mutated."""
    return EngineState(
        mode=mode,
        file_path=path,
        hooks=list(style.hooks),
        out_delims=style.out_delims,
        line_comment=style.line_comment,
        indent_adjust=style.indent_adjust,
        base_dir=os.path.dirname(os.path.abspath(path)),
    )


def line_col(text: str, offset: int) -> tuple[int, int]:
    """1-based (line, column) of `offset` in `text`."""
    line = text.count("\n", 0, offset) + 1
    start = text.rfind("\n", 0, offset) + 1
    return line, offset - start + 1
