"""Segmentation of input text into segments, `str | Snippet`: a `str` is
source text that survives in the mode, and a `Snippet` marks where a
snippet's output goes; this module alone decides what each mode keeps.

Scanning is incremental: `iter_segments` is a generator that re-reads the
state's hook list before every search, so a snippet that registers new hooks
affects everything after it. It keeps each hook's next match in one heap,
ordered as the tie rule orders matches, so a scan searches the text about
once per hook and each step costs O(log hooks).
"""
from __future__ import annotations

import re
from collections import namedtuple
from collections.abc import Iterator
from heapq import heappush, heapreplace

from .core import (
    BeginEnd,
    EngineState,
    EvalError,
    Hook,
    OutDelims,
    ParseError,
)


# Where one begin/end-delimited scriptlet's output goes; its markup is in
# the text around it, or gone in replace mode. code is the text between the
# delimiters, and code_offset where that text starts in the scanned text.
# indent is the leading whitespace of the source line holding the begin
# delimiter (see `iter_segments`). existing_output is the text of the output
# block that follows the snippet, read with the output delimiters in effect
# when the scan reached it, or None.
Snippet = namedtuple("Snippet", "code code_offset indent existing_output")

Segment = str | Snippet

_BLANKS = re.compile("[ \t]*")
_CAPTURE_REF = re.compile(r"\$([1-9])")
_NEVER = float("inf")  # the offset of what never occurs
_ABSENT = (_NEVER, _NEVER, None)  # _search's answer when there is no match


def _search(text: str, hook: Hook, from_: int, last_end: int = -1):
    """(start, end, m) of the first match of `hook` at or after `from_`, `m`
    a regex hook's `re.Match` (None for a snippet), end `_NEVER` for a begin
    delimiter never terminated; `_ABSENT` if none. It depends on (text, hook)
    only, so it stays the answer for every later `from_` up to its start.
    `last_end` ends the hook's previous answer, one before `from_`."""
    if isinstance(hook, BeginEnd):
        b = text.find(hook.begin, from_)
        if b < 0:
            return _ABSENT
        code = b + len(hook.begin)
        # The last begin's end is the first end after its code, or there is
        # none; so it is this begin's too when this code starts no later.
        if code <= last_end - len(hook.end):
            return b, last_end, None
        e = text.find(hook.end, code)
        return b, (e + len(hook.end) if e >= 0 else _NEVER), None
    # Zero-width matches are skipped: they carry no text to rewrite and
    # would stall the scan. (re.search clamps pos to len(text) and keeps
    # reporting the final empty match, hence the bound.)
    search = hook.regex.search
    at = from_
    n = len(text)
    while at <= n:
        m = search(text, at)
        if m is None:
            return _ABSENT
        start, end = m.span()
        if end > start:
            return start, end, m
        at = start + 1
    return _ABSENT


def find_next_match(text: str, from_: int, hooks: list[Hook],
                    heap: list) -> tuple | None:
    """Earliest hook match at or after `from_`, as (hook, start, end, m)
    with `end` exclusive and `m` as `_search` gives it, or None.

    Ties are broken by smallest start, then smallest match length, then
    earliest hook in `hooks`. A begin delimiter with no end delimiter after
    it is a match that never ends: a ParseError when it comes first.
    `heap` keeps each hook's `_search` result as (start, end, index in `hooks`,
    m), ordered by that rule (a unique index, so `m` is never compared),
    between calls over one text with non-decreasing `from_` and `hooks` only
    appended to; a hook is searched again once passed. A hook with no further
    match stays in it, ordered last, so it holds the first `len(heap)` hooks.
    """
    for i in range(len(heap), len(hooks)):
        start, end, m = _search(text, hooks[i], from_)
        heappush(heap, (start, end, i, m))
    while heap[0][0] < from_:
        _, last_end, i, _ = heap[0]
        start, end, m = _search(text, hooks[i], from_, last_end)
        heapreplace(heap, (start, end, i, m))
    start, end, i, m = heap[0]
    if end != _NEVER:
        return hooks[i], start, end, m
    if start == _NEVER:
        return None
    raise ParseError("snippet begin delimiter is never terminated", at=start)


def _group(m: re.Match, ref: re.Match) -> str:
    """Group N of `m` for the `$N` that `ref` matched; "" for a group that
    took no part or that the regex lacks."""
    n = int(ref[1])
    return m[n] or "" if n <= m.re.groups else ""


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
    end_marker = delims.e1 + infix + delims.e2
    k = text.find(end_marker, j + len(delims.b2))
    if k < 0:
        raise ParseError(
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
        run = _BLANKS.match(text, a, b)[0]
        indent += run
        blank = a + len(run) == b
    return indent, blank


def iter_segments(text: str, state: EngineState,
                  replace: bool = False) -> Iterator[Segment]:
    """Yield segments left to right, honouring live hook mutations.

    Update keeps all but the consumed output blocks, a snippet's markup in
    the `str` before it, so the `str`s and those blocks give back the input.
    Replace keeps the passthrough and each regex match's template, filled
    from its groups; a snippet that starts its line takes its indent with
    it when the passthrough right before it ends with it.

    Callers that evaluate snippets between pulls see hook/out_delims changes
    applied from the resume point onward, and read the fence a snippet was
    scanned with from `state` on receiving it. Existing output blocks are
    detected in both modes, only for BeginEnd hooks, and only with zero
    characters between snippet end and block begin.

    A snippet's indent and whether it starts its line come from its source
    line: the line as it reads with consumed output blocks left out, carried
    forward piece by piece so no line is read twice. Update only rewrites
    blocks, so it cannot change them, and a rerun indents output the same.
    """
    pos = kept = 0  # where the scan is; where the text not yet yielded starts
    indent, blank = "", True  # the source line so far, as `_line` keeps it
    hooks = state.hooks
    found: list = []  # each hook's next match, find_next_match's heap
    while True:
        if state.hooks is not hooks:  # set_style(): the indexes start over
            hooks, found = state.hooks, []
        try:
            match = find_next_match(text, pos, hooks, found)
        except EvalError as exc:  # process_file's deadline, mid-search
            exc.at = pos
            raise
        if match is None:
            if kept < len(text):
                yield text[kept:]
            return
        hook, start, end, m = match
        if start > pos:
            indent, blank = _line(text, pos, start, indent, blank)
        if isinstance(hook, BeginEnd):
            # On a blank line a delimiter's leading whitespace (" [[") adds
            # to the indent, and the snippet then does not start its line.
            run = _BLANKS.match(text, start)[0] if blank else ""
            stop = end
            if replace:
                stop = start
                if blank and not run and text.endswith(indent, pos, start):
                    stop -= len(indent)
            if stop > kept:
                yield text[kept:stop]
            existing = detect_output_block(text, end, state.out_delims)
            code_offset = start + len(hook.begin)
            yield Snippet(text[code_offset:end - len(hook.end)], code_offset,
                          indent + run, existing)
            kept = end if existing is None else end + len(existing)
        elif replace:
            if start > kept:
                yield text[kept:start]
            yield _CAPTURE_REF.sub(lambda ref: _group(m, ref), hook.template)
            kept = end
        indent, blank = _line(text, start, end, indent, blank)
        pos = max(end, kept)  # past a consumed output block
