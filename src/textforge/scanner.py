"""Segmentation of input text into outer text, snippets, and hook matches.

Scanning is incremental: `iter_segments` is a generator that re-reads the
state's hook list before every search, so a snippet that registers new hooks
affects everything after it. It remembers where each hook occurs next, so a
scan searches the text about once per hook. Concatenating the raw text of
every segment (including each snippet's consumed existing-output block)
reproduces the input byte for byte.
"""
from __future__ import annotations

import re
from collections import namedtuple
from collections.abc import Iterator

from .core import (
    BeginEnd,
    EngineState,
    Hook,
    OutDelims,
    UnterminatedOutputError,
    UnterminatedSnippetError,
)


# Text the engine passes through untouched.
Outer = namedtuple("Outer", "text")

# One begin/end-delimited scriptlet occurrence. raw spans begin through end
# delimiter inclusive; code is the text between them, and code_offset where
# that text starts in the scanned text. indent is the leading whitespace of
# the source line holding the begin delimiter, and starts_line whether only
# that whitespace precedes the delimiter (see `iter_segments`).
# existing_output is the text of the output block that follows the snippet,
# or None. out_delims/indent_adjust record the values in effect when the
# snippet was scanned, so later retargeting cannot re-wrap earlier output.
Snippet = namedtuple("Snippet", "raw code code_offset indent starts_line "
                     "existing_output out_delims indent_adjust")

# Text matched by a regex hook, with its capture groups.
PatternMatch = namedtuple("PatternMatch", "hook_index matched captures")

Segment = Outer | Snippet | PatternMatch

_BLANKS = re.compile("[ \t]*")
_UNSEARCHED = (-1,)  # find_next_match's cache entry for a hook not searched


def _search(text: str, hook: Hook, from_: int):
    """(start, end, captures) of the first match of `hook` at or after
    `from_`, with end None for a begin delimiter that is never terminated;
    None if there is none. It depends on (text, hook) only, so it stays the
    answer for every later `from_` up to its start."""
    if isinstance(hook, BeginEnd):
        b = text.find(hook.begin, from_)
        if b < 0:
            return None
        e = text.find(hook.end, b + len(hook.begin))
        return b, (e + len(hook.end) if e >= 0 else None), ()
    # Zero-width matches are skipped: they carry no text to rewrite and
    # would stall the scan. (re.search clamps pos to len(text) and keeps
    # reporting the final empty match, hence the bound.)
    search = hook.regex.search
    at = from_
    n = len(text)
    while at <= n:
        m = search(text, at)
        if m is None:
            return None
        start, end = m.span()
        if end > start:
            return start, end, m.groups("")[:9]
        at = start + 1
    return None


def find_next_match(text: str, from_: int, hooks: list[Hook],
                    *, cache: dict | None = None) -> tuple | None:
    """Earliest hook match at or after `from_`, as
    (hook_index, start, end, captures) with `end` exclusive, or None.

    Ties are broken by smallest start, then smallest match length, then
    smallest hook index. A begin delimiter with no end delimiter anywhere
    after it is a hard error once no complete match starts before it.
    `cache` keeps each hook's `_search` result between calls over one text
    with non-decreasing `from_`; a hook is searched again once it is passed.
    """
    cache = {} if cache is None else cache
    best = None
    dangling: int | None = None  # earliest unterminated begin

    i = -1
    for hook in hooks:
        i += 1
        found = cache.get(hook, _UNSEARCHED)
        if found is None:  # absent from the rest of the text
            continue
        if found[0] < from_:
            found = cache[hook] = _search(text, hook, from_)
            if found is None:
                continue
        start, end, captures = found
        if end is None:
            if dangling is None or start < dangling:
                dangling = start
            continue
        # With the same start, the shorter match ends first; on a full tie
        # the earlier hook stays.
        if best is None or start < best[1] or (start == best[1] and end < best[2]):
            best = (i, start, end, captures)

    if dangling is not None and (best is None or dangling < best[1]):
        raise UnterminatedSnippetError(
            "snippet begin delimiter is never terminated", at=dangling)
    return best


def detect_output_block(text: str, at: int,
                        delims: OutDelims) -> str | None:
    """Text of the existing output block starting exactly at `at`, from its
    begin marker through its end marker (never empty), or None.

    The infix is a maximal run of decimal digits between b1 and b2; the end
    marker must carry the same infix. A begin marker without its end marker
    is a hard error.
    """
    if not text.startswith(delims.b1, at):
        return None
    i = at + len(delims.b1)
    j = i
    while j < len(text) and "0" <= text[j] <= "9":
        j += 1
    infix = text[i:j]
    if not text.startswith(delims.b2, j):
        return None
    end_marker = delims.end(infix)
    k = text.find(end_marker, j + len(delims.b2))
    if k < 0:
        raise UnterminatedOutputError(
            "output block begin marker has no matching end marker", at=at)
    return text[at:k + len(end_marker)]


def _line(text: str, a: int, b: int, indent: str,
          blank: bool) -> tuple[str, bool]:
    """(indent, blank) of the source line once `text[a:b]` is read onto it:
    its leading spaces and tabs so far, and whether that is all of it."""
    newline = text.rfind("\n", a, b)
    if newline >= 0:
        a, indent, blank = newline + 1, "", True
    if blank:
        end = _BLANKS.match(text, a, b).end()
        indent += text[a:end]
        blank = end == b
    return indent, blank


def iter_segments(text: str, state: EngineState) -> Iterator[Segment]:
    """Yield segments left to right, honouring live hook mutations.

    Callers that evaluate snippets between pulls see hook/out_delims changes
    applied from the resume point onward. Existing output blocks are detected
    in both modes, only for BeginEnd hooks, and only with zero characters
    between snippet end and block begin.

    A snippet's indent and whether it starts its line come from its source
    line: the line as it reads with consumed output blocks left out, carried
    forward piece by piece so no line is read twice. Update only rewrites
    blocks, so it cannot change them, and a rerun indents output the same.
    """
    pos = 0
    n = len(text)
    indent, blank = "", True  # the source line so far, as `_line` keeps it
    found: dict = {}  # hook -> its next occurrence, for find_next_match
    while True:
        match = find_next_match(text, pos, state.hooks, cache=found)
        if match is None:
            if pos < n:
                yield Outer(text[pos:])
            return
        index, start, end, captures = match
        if start > pos:
            yield Outer(text[pos:start])
            indent, blank = _line(text, pos, start, indent, blank)
        existing = None
        hook = state.hooks[index]
        if isinstance(hook, BeginEnd):
            # On a blank line a delimiter's leading whitespace (" [[") adds
            # to the indent, and the snippet then does not start its line.
            run = text[start:_BLANKS.match(text, start).end()] if blank else ""
            delims = state.out_delims
            existing = detect_output_block(text, end, delims)
            code_offset = start + len(hook.begin)
            yield Snippet(text[start:end],
                          text[code_offset:end - len(hook.end)], code_offset,
                          indent + run, blank and not run, existing, delims,
                          state.indent_adjust)
        else:
            yield PatternMatch(index, text[start:end], captures)
        indent, blank = _line(text, start, end, indent, blank)
        pos = end
        if existing is not None:
            pos += len(existing)
